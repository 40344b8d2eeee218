"""Short-term spectral feature extractors: MFCC, LPCC and PLP.

extract picks the frames it keeps before it copies any sample, pre-emphasizes
(mfcc, lpcc) and tapers only those, and hands them to one back-end per kind;
each back-end returns one cepstral vector per frame. The runtime
needs NumPy only: the MFCC cosine transform runs on numpy.fft, step by step as
SciPy's pocketfft runs it, so its output equals SciPy's dct/idct bit for bit.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .audio_io import AudioSignal, check_frame_timing, frame_layout, hamming_window
from .errors import (
    FilterbankTooDense,
    FrameExceedsFft,
    UnstableRecursion,
    check_fields_like_defaults,
    check_unread_at_defaults,
)

LOG_FLOOR = 1e-10  # keeps log of empty bands finite
EXTRACTOR_KINDS = ("mfcc", "lpcc", "plp")

MEL_SLOPE = 1125.0
MEL_KNEE_HZ = 700.0
BARK_SCALE_RADS = 1200.0 * np.pi

DEFAULT_MEL_FILTERS = 26
DEFAULT_BARK_BANDS = 21
# trapezoidal critical band: flat within +-0.5 bark of the center, zero beyond +-1.5
BARK_FLAT_HALF_WIDTH = 0.5
BARK_ZERO_HALF_WIDTH = 1.5

# the ExtractorConfig knobs that windowed_frames and each kind's back-end never read
UNREAD_KNOBS = {
    "mfcc": ("lpc_order_q",),
    "lpcc": ("fft_size", "filter_count", "dct_kind", "include_c0"),
    "plp": ("pre_emphasis_a", "dct_kind", "include_c0"),
}


@dataclass(frozen=True)
class ExtractorConfig:
    """Knobs shared by the three extractors; see default_config for presets.

    Each knob must have the type of its default, and a knob that the kind
    never reads (UNREAD_KNOBS) must keep its default.
    """

    kind: str
    pre_emphasis_a: float = 0.97
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    fft_size: int = 512
    filter_count: int = DEFAULT_MEL_FILTERS
    lpc_order_q: int = 12
    num_ceps: int = 13
    dct_kind: str = "dct2"
    include_c0: bool = False

    def __post_init__(self):
        if self.kind not in EXTRACTOR_KINDS:
            raise ValueError(f"kind must be one of {EXTRACTOR_KINDS}")
        check_fields_like_defaults(self)
        check_unread_at_defaults(self, UNREAD_KNOBS[self.kind], self.kind)
        if not 0.9 <= self.pre_emphasis_a <= 1.0:
            raise ValueError("pre_emphasis_a must lie in [0.9, 1]")
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")
        if not 8 <= self.lpc_order_q <= 16:
            raise ValueError("lpc_order_q must lie in [8, 16]")
        if not 12 <= self.num_ceps <= 15:
            raise ValueError("num_ceps must lie in [12, 15]")
        if self.dct_kind not in ("dct2", "idct"):
            raise ValueError("dct_kind must be 'dct2' or 'idct'")
        check_frame_timing(self.frame_ms, self.hop_ms)
        if self.kind == "mfcc":
            _check_mel_filter_count(self.filter_count)
            # the DCT of filter_count log energies has filter_count coefficients, c0 first
            kept = self.filter_count - (0 if self.include_c0 else 1)
            if kept < self.num_ceps:
                raise ValueError(
                    f"filter_count {self.filter_count} yields {kept} coefficients, fewer than num_ceps {self.num_ceps}"
                )
        # plp's symmetric loudness spectrum must yield lpc_order_q + 1 autocorrelation lags
        if self.kind == "plp" and 2 * (self.filter_count + 1) < self.lpc_order_q + 1:
            raise ValueError("filter_count too small for the requested LPC order")


def _check_mel_filter_count(filter_count: int) -> None:
    if filter_count < 2:
        raise ValueError("filter_count must be >= 2")


def default_config(kind: str, **overrides) -> ExtractorConfig:
    """Build the standard config for an extractor kind."""
    if kind == "plp":
        overrides.setdefault("filter_count", DEFAULT_BARK_BANDS)
    return replace(ExtractorConfig(kind=kind), **overrides)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame feature vectors and the unstable LPC frame count."""

    values: np.ndarray
    unstable_frames: int = 0

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError("values must be a non-empty frame x coefficient matrix")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")


def pre_emphasize(signal: AudioSignal, a: float) -> AudioSignal:
    """First-order high-pass y[n] = x[n] - a*x[n-1], with y[0] = x[0]."""
    if not 0.9 <= a <= 1.0:
        raise ValueError("pre-emphasis coefficient must lie in [0.9, 1]")
    x = signal.samples
    y = np.concatenate(([x[0]], x[1:] - a * x[:-1]))
    return AudioSignal(samples=y, sample_rate=signal.sample_rate)


# --- Mel path -------------------------------------------------------------

def mel_scale(f) -> np.ndarray:
    """Perceptual pitch value of a frequency in Hz."""
    return MEL_SLOPE * np.log1p(np.asarray(f, dtype=np.float64) / MEL_KNEE_HZ)


def mel_to_hz(m) -> np.ndarray:
    return MEL_KNEE_HZ * np.expm1(np.asarray(m, dtype=np.float64) / MEL_SLOPE)


def mel_filter_edges(filter_count: int, sample_rate: int) -> np.ndarray:
    """Filter edge frequencies in Hz: filter_count centers plus the two outer edges."""
    edges_mel = np.linspace(0.0, float(mel_scale(sample_rate / 2.0)), filter_count + 2)
    return mel_to_hz(edges_mel)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def mel_filterbank(config: ExtractorConfig, sample_rate: int) -> np.ndarray:
    """Triangular filters with centers uniformly spaced on the mel axis, read-only.

    Each triangle rises from the previous center and falls to the next one
    (50% overlap). Rows are evaluated at the FFT bin frequencies.
    """
    return _mel_bank(config.filter_count, config.fft_size, sample_rate)


@functools.lru_cache(maxsize=32)
def _mel_bank(filter_count: int, fft_size: int, sample_rate: int) -> np.ndarray:
    _check_mel_filter_count(filter_count)
    n_bins = fft_size // 2 + 1
    if filter_count > n_bins - 2:
        raise FilterbankTooDense(f"{filter_count} filters cannot fit into {n_bins} FFT bins")
    edges = mel_filter_edges(filter_count, sample_rate)
    bin_freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)

    bank = np.zeros((filter_count, n_bins))
    for i in range(filter_count):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        bank[i] = np.maximum(0.0, np.minimum(rising, falling))
    if not (bank > 0).any(axis=1).all():
        raise FilterbankTooDense("filter spacing is finer than the FFT resolution")
    return _read_only(bank)


def check_frame_cap(cap, field: str) -> None:
    """Raise ValueError naming field unless cap is None or an integer >= 1."""
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1):
        raise ValueError(f"{field} must be None or an integer >= 1, got {cap!r}")


@functools.lru_cache(maxsize=8)
def _taper(frame_length: int) -> np.ndarray:
    return _read_only(hamming_window(frame_length))


def windowed_frames(
    signal: AudioSignal, config: ExtractorConfig, max_frames: Optional[int] = None
) -> np.ndarray:
    """Keep max_frames evenly spaced frames (None keeps all), pre-emphasize them for mfcc and lpcc, apply the Hamming taper.

    The frame starts are chosen before any sample is copied, and only the kept
    rows are gathered, pre-emphasized and tapered. They equal, bit for bit,
    the same rows of frame_signal(pre_emphasize(signal, a)) times the taper
    (frame_signal(signal) for plp, whose equal-loudness curve already weights
    the spectrum). Every later step is per frame, so selecting rows here gives
    the same values as extracting every frame and selecting afterwards.
    """
    frame_length, hop, count = frame_layout(signal, config.frame_ms, config.hop_ms)
    check_frame_cap(max_frames, "max_frames")
    rows = np.arange(count)
    if max_frames is not None and count > max_frames:
        rows = np.round(np.linspace(0, count - 1, max_frames)).astype(int)
    starts = rows * hop
    x = signal.samples
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_length)[starts]
    if config.kind != "plp":
        # y[n] = x[n] - a*x[n-1] as pre_emphasize computes it; the first kept frame
        # starts at sample 0 and keeps y[0] = x[0]
        a = config.pre_emphasis_a
        frames[:, 1:] -= a * frames[:, :-1]
        frames[1:, 0] -= a * x[starts[1:] - 1]
    frames *= _taper(frame_length)
    return frames


def _fft_magnitudes(frames: np.ndarray, fft_size: int) -> np.ndarray:
    """|rfft| of each frame at fft_size points; a longer frame would be cut short, so it raises FrameExceedsFft."""
    if fft_size < frames.shape[1]:
        raise FrameExceedsFft(f"fft_size must be >= the frame length in samples ({fft_size} < {frames.shape[1]})")
    return np.abs(np.fft.rfft(frames, fft_size, axis=1))


def _project(spectra: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Per-frame filterbank sums, spectra (frames x bins) against bank (bands x bins).

    Plain einsum gives each row the same value whatever the batch size; a BLAS
    matmul may not, and frame selection must not change the kept rows.
    """
    return np.einsum("fk,bk->fb", spectra, bank)


def mel_energies(frames: np.ndarray, config: ExtractorConfig, sample_rate: int) -> np.ndarray:
    """Per-frame mel filterbank energies of windowed frames."""
    magnitude = _fft_magnitudes(frames, config.fft_size)
    return _project(magnitude, mel_filterbank(config, sample_rate))


# pocketfft's pi literal, in long double: it rounds its angle step pi/(4m) from long double,
# and a step computed in double is one ulp off for some n (3, 13, 24 and 26 among them)
_PI = np.longdouble("3.141592653589793238462643383279502884197")
_SQRT2 = 1.4142135623730951


@functools.lru_cache(maxsize=32)
def _dct_plan(n: int) -> tuple[np.ndarray, float]:
    """Twiddles w[i] = cos(pi * (i + 1) / (2n)), i < n - 1, and the scale 1/sqrt(2n), rounded as pocketfft rounds them.

    pocketfft's sincos_2pibyn(4n) takes the angle of index j as the product of
    two table entries, j & mask and the rest, each evaluated by cos or sin of
    an angle of at most pi/4, with the angle step rounded from long double.
    """
    m = 4 * n
    step = float(np.longdouble(0.25) * _PI / np.longdouble(m))
    shift = 1
    while 4**shift < (m + 2) // 2:
        shift += 1
    mask = (1 << shift) - 1

    def cos_sin(j: int) -> tuple[float, float]:
        x = 8 * j  # j < n, so the angle 2*pi*j/m lies below pi/2
        if x < m:
            return math.cos(x * step), math.sin(x * step)
        return math.sin((2 * m - x) * step), math.cos((2 * m - x) * step)

    w = np.empty(n - 1)
    for i in range(n - 1):
        (ar, ai), (br, bi) = cos_sin((i + 1) & mask), cos_sin((i + 1) & ~mask)
        w[i] = ar * br - ai * bi
    return _read_only(w), float(1 / np.sqrt(np.longdouble(2 * n)))


def _dct(x: np.ndarray, kind: str) -> np.ndarray:
    """Orthonormal DCT-II ("dct2") or its inverse, the DCT-III ("idct"), of each row of x.

    Equal bit for bit to SciPy's dct / idct(x, type=2, norm="ortho", axis=1):
    the steps and roundings are those of pocketfft's T_dcst23::exec (Makhoul's
    FFT-based cosine transform), and numpy.fft (NumPy >= 2.0) runs the same
    pocketfft real transforms. Rows are independent, so a row's result does
    not depend on the batch it is in.
    """
    n = x.shape[1]
    w, fct = _dct_plan(n)
    q = (n - 1) // 2  # complex bins between DC and Nyquist
    k = np.arange(1, (n + 1) // 2)  # the pairs (k, n - k) of the twiddle step
    kc = n - k
    wk, wkc = w[k - 1], w[kc - 1]
    if kind == "dct2":
        # pocketfft doubles c0 (and an even n's last value), turns each pair (c[2j-1], c[2j])
        # into (sum, difference) and reads the row as halfcomplex bins [r0, r1, i1, r2, i2, ...]
        spec = np.zeros((x.shape[0], n // 2 + 1), dtype=np.complex128)
        spec.real[:, 0] = 2.0 * x[:, 0]
        odd, even = x[:, 1 : 2 * q : 2], x[:, 2::2]
        spec.real[:, 1 : q + 1] = odd + even
        spec.imag[:, 1 : q + 1] = even - odd
        if n % 2 == 0:
            spec.real[:, -1] = 2.0 * x[:, -1]
        c = fct * np.fft.irfft(spec, n, axis=1, norm="forward")
        # post-twiddle of each pair (k, n - k)
        t1 = wk * c[:, kc] + wkc * c[:, k]
        t2 = wk * c[:, k] - wkc * c[:, kc]
        c[:, k], c[:, kc] = 0.5 * (t1 + t2), 0.5 * (t1 - t2)
        if n % 2 == 0:
            c[:, n // 2] *= w[n // 2 - 1]
        c[:, 0] *= _SQRT2 * 0.5
        return c
    # the DCT-III mirrors it: pre-twiddle, forward real FFT read as halfcomplex, then pairs to (difference, sum)
    c = x.copy()
    c[:, 0] *= _SQRT2
    t1, t2 = c[:, k] + c[:, kc], c[:, k] - c[:, kc]
    c[:, k], c[:, kc] = wk * t2 + wkc * t1, wk * t1 - wkc * t2
    if n % 2 == 0:
        c[:, n // 2] *= 2.0 * w[n // 2 - 1]
    spec = np.fft.rfft(c, axis=1)
    re, im = fct * spec.real[:, 1 : q + 1], fct * spec.imag[:, 1 : q + 1]
    c[:, 0] = fct * spec.real[:, 0]
    c[:, 1 : 2 * q : 2], c[:, 2::2] = re - im, im + re
    if n % 2 == 0:
        c[:, -1] = fct * spec.real[:, -1]
    return c


def _mfcc(frames: np.ndarray, config: ExtractorConfig, sample_rate: int) -> tuple[np.ndarray, int]:
    """Mel-frequency cepstral coefficients of each frame; no frame is unstable."""
    log_energies = np.log(np.maximum(mel_energies(frames, config, sample_rate), LOG_FLOOR))
    ceps = _dct(log_energies, config.dct_kind)
    lo = 0 if config.include_c0 else 1
    return ceps[:, lo : lo + config.num_ceps], 0


# --- LPC path -------------------------------------------------------------

def levinson_durbin(autocorr) -> tuple[np.ndarray, float]:
    """Solve the Toeplitz normal equations for predictor coefficients.

    Input is autocorrelation lags 0..Q; output a satisfies
    Toeplitz(r[0..Q-1]) @ a = r[1..Q], plus the residual prediction error.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("autocorr must hold lags 0..Q with Q >= 1")
    if r[0] <= 0:
        raise ValueError("autocorr[0] must be positive")
    order = r.size - 1
    a = np.zeros(order)
    err = float(r[0])
    for i in range(1, order + 1):
        k = (r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])) / err
        if abs(k) >= 1.0:
            raise UnstableRecursion(f"reflection coefficient {k:.6g} at order {i}")
        prev = a[: i - 1].copy()
        a[: i - 1] = prev - k * prev[::-1]
        a[i - 1] = k
        err *= 1.0 - k * k
    return a, err


def _dot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row dot products added left to right from 0, so no row depends on the batch size.

    np.add.accumulate adds strictly in order, unlike np.sum's pairwise sums.
    """
    terms = np.zeros((x.shape[0], x.shape[1] + 1))
    np.multiply(x, y, out=terms[:, 1:])
    return np.add.accumulate(terms, axis=1)[:, -1]


def levinson_durbin_rows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """levinson_durbin on every row of r (rows x autocorrelation lags 0..Q) at once.

    Rows that are silent (lag 0 <= LOG_FLOOR) or reach |k| >= 1 at any order
    yield zero coefficients and zero error; their count is returned as well.
    """
    a = np.zeros((r.shape[0], r.shape[1] - 1))
    dead = r[:, 0] <= LOG_FLOOR
    err = np.where(dead, 1.0, r[:, 0])  # a dead row divides by 1 and keeps k = 0
    for i in range(1, r.shape[1]):
        k = (r[:, i] - _dot_rows(a[:, : i - 1], r[:, i - 1 : 0 : -1])) / err
        dead |= np.abs(k) >= 1.0
        k[dead] = 0.0
        a[:, : i - 1] -= k[:, None] * a[:, : i - 1][:, ::-1]
        a[:, i - 1] = k
        err *= 1.0 - k * k
    a[dead] = 0.0
    err[dead] = 0.0
    return a, err, int(dead.sum())


def lpc_to_cepstrum(lpc, num_ceps: int) -> np.ndarray:
    """Cepstral coefficients c1..c_num_ceps of one all-pole model, or one per row.

    Uses the recursion c_n = a_n + (1/n) * sum_{k=1..n-1} k*c_k*a_{n-k},
    with a_n = 0 beyond the model order. c0 depends only on the gain and is not returned.
    """
    a = np.atleast_2d(np.asarray(lpc, dtype=np.float64))
    q = a.shape[1]
    c = np.zeros((a.shape[0], num_ceps + 1))
    c[:, 1 : q + 1] = a[:, :num_ceps]
    ks = np.arange(num_ceps + 1)
    for n in range(2, num_ceps + 1):
        lo = max(1, n - q)
        # k * c_k for k = lo..n-1 against a_{n-k} for the same k: a's columns n-lo-1 down to 0
        c[:, n] += _dot_rows(ks[lo:n] * c[:, lo:n], a[:, n - lo - 1 :: -1]) / n
    return c[0, 1:] if np.ndim(lpc) == 1 else c[:, 1:]


def lpc_analysis(frames: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-frame LPC: biased autocorrelation, then levinson_durbin_rows."""
    frame_len = frames.shape[1]
    nfft = 1 << int(np.ceil(np.log2(2 * frame_len - 1)))
    spectra = np.abs(np.fft.rfft(frames, nfft, axis=1)) ** 2
    autocorr = np.fft.irfft(spectra, nfft, axis=1)[:, : order + 1] / frame_len
    return levinson_durbin_rows(autocorr)


def _lpcc(frames: np.ndarray, config: ExtractorConfig, sample_rate: int) -> tuple[np.ndarray, int]:
    """Linear-prediction cepstral coefficients of each frame, and the unstable frame count."""
    coeffs, _, unstable = lpc_analysis(frames, config.lpc_order_q)
    return lpc_to_cepstrum(coeffs, config.num_ceps), unstable


# --- PLP path -------------------------------------------------------------

def bark_scale(omega) -> np.ndarray:
    """Critical-band rate of an angular frequency (rad/s)."""
    return 6.0 * np.arcsinh(np.asarray(omega, dtype=np.float64) / BARK_SCALE_RADS)


def equal_loudness(omega) -> np.ndarray:
    """Ear-sensitivity weight at an angular frequency (rad/s)."""
    w2 = np.asarray(omega, dtype=np.float64) ** 2
    return ((w2 + 56.8e6) * w2 ** 2) / ((w2 + 6.3e6) ** 2 * (w2 + 0.38e9))


def bark_band_centers(band_count: int, sample_rate: int) -> np.ndarray:
    """Band center frequencies (rad/s), uniform on the bark axis up to Nyquist."""
    nyquist_bark = float(bark_scale(np.pi * sample_rate))
    centers_bark = np.linspace(0.0, nyquist_bark, band_count + 2)[1:-1]
    return BARK_SCALE_RADS * np.sinh(centers_bark / 6.0)


def bark_band_loudness(frames: np.ndarray, config: ExtractorConfig, sample_rate: int) -> np.ndarray:
    """Per-frame critical-band loudness of windowed frames, bands at bark_band_centers.

    Power spectra are integrated through trapezoidal bark-axis windows,
    weighted by the equal-loudness curve at each band center, then
    compressed by the cube root (intensity to loudness).
    """
    power = _fft_magnitudes(frames, config.fft_size) ** 2
    windows, weights = _bark_bank(config.filter_count, config.fft_size, sample_rate)
    return np.cbrt(_project(power, windows) * weights)


@functools.lru_cache(maxsize=32)
def _bark_bank(band_count: int, fft_size: int, sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only trapezoidal bark windows (bands x FFT bins) and the equal-loudness weight of each band."""
    bin_bark = bark_scale(2.0 * np.pi * np.fft.rfftfreq(fft_size, 1.0 / sample_rate))
    centers = bark_band_centers(band_count, sample_rate)
    offsets = np.abs(bin_bark[None, :] - bark_scale(centers)[:, None])
    windows = np.clip(
        (BARK_ZERO_HALF_WIDTH - offsets) / (BARK_ZERO_HALF_WIDTH - BARK_FLAT_HALF_WIDTH),
        0.0,
        1.0,
    )
    if not (windows > 0).any(axis=1).all():
        raise FilterbankTooDense("band spacing is finer than the FFT resolution")
    return _read_only(windows), _read_only(equal_loudness(centers))


def _plp(frames: np.ndarray, config: ExtractorConfig, sample_rate: int) -> tuple[np.ndarray, int]:
    """Perceptual linear prediction cepstra of each frame, and the unstable frame count.

    The band loudness values are treated as samples of a symmetric spectrum;
    its inverse DFT yields autocorrelation lags for the all-pole fit.
    """
    loudness = bark_band_loudness(frames, config, sample_rate)
    padded = np.concatenate([loudness[:, :1], loudness, loudness[:, -1:]], axis=1)
    symmetric = np.concatenate([padded, padded[:, -2:0:-1]], axis=1)
    autocorr = np.fft.ifft(symmetric, axis=1).real[:, : config.lpc_order_q + 1]

    coeffs, _, unstable = levinson_durbin_rows(autocorr)
    return lpc_to_cepstrum(coeffs, config.num_ceps), unstable


def extract(
    signal: AudioSignal,
    config: ExtractorConfig,
    max_frames: Optional[int] = None,
) -> FeatureMatrix:
    """Cepstra of the extractor selected by config.kind, one row per kept frame.

    The frames come from windowed_frames: mfcc and lpcc frames are
    pre-emphasized, plp frames are not. max_frames keeps that many evenly
    spaced frames (None keeps all) and is applied before any sample is
    copied.
    """
    frames = windowed_frames(signal, config, max_frames)
    back_end = {"mfcc": _mfcc, "lpcc": _lpcc, "plp": _plp}[config.kind]
    values, unstable = back_end(frames, config, signal.sample_rate)
    return FeatureMatrix(values=values, unstable_frames=unstable)
