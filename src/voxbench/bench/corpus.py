"""Corpus manifests and the deterministic synthetic-speaker generator."""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..audio_io import MIN_SAMPLE_RATE, AudioSignal, write_wav
from .reports import write_csv

SILENCE_LEAD_SECONDS = 0.25
SILENCE_NOISE_AMP = 5e-5
PITCH_RANGE_HZ = (90.0, 220.0)
FORMANT_RANGES_HZ = ((300.0, 800.0), (950.0, 2200.0), (2350.0, 3200.0))
FORMANT_BANDWIDTHS_HZ = (90.0, 110.0, 140.0)
VOICED_RMS = 0.15
PEAK_LIMIT = 0.9
PITCH_DETUNE_PER_RECORDING = 0.02
FORMANT_DETUNE_PER_RECORDING = 0.008
PULSE_AMP_JITTER = 0.05
PULSE_PERIOD_JITTER = 0.005
ASPIRATION_NOISE = 0.01
IMPULSE_DECAY = 1e-20  # the all-pole response tail left out of the FFT, relative to its start
MANIFEST_COLUMNS = ("path", "speaker", "sample")


def derive_seed(master_seed: int, tag: str) -> int:
    """Stable per-task seed; identical across platforms and worker counts."""
    digest = hashlib.sha256(f"{master_seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class ManifestEntry:
    path: str  # relative to the manifest root
    speaker: int
    sample: int


@dataclass(frozen=True)
class CorpusManifest:
    """Recording list with speaker/sample ids; paths resolve against root."""

    entries: tuple[ManifestEntry, ...]
    root: Path
    sample_rate: int | None = None

    def __post_init__(self):
        speakers = {}
        for entry in self.entries:
            speakers.setdefault(entry.speaker, set()).add(entry.sample)
        if len(speakers) < 2:
            raise ValueError("corpus needs at least two speakers")
        if any(len(samples) < 2 for samples in speakers.values()):
            raise ValueError("every speaker needs at least two recordings")

    @property
    def speaker_ids(self) -> list[int]:
        return sorted({e.speaker for e in self.entries})

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.root / entry.path

    def subset_speakers(self, n: int) -> "CorpusManifest":
        """Manifest restricted to the first n speaker ids (sorted order)."""
        keep = set(self.speaker_ids[:n])
        return CorpusManifest(
            entries=tuple(e for e in self.entries if e.speaker in keep),
            root=self.root,
            sample_rate=self.sample_rate,
        )


def save_manifest(manifest: CorpusManifest, csv_path) -> None:
    write_csv(csv_path, MANIFEST_COLUMNS, ([e.path, e.speaker, e.sample] for e in manifest.entries))


def load_manifest(csv_path) -> CorpusManifest:
    csv_path = Path(csv_path)
    entries = []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not set(MANIFEST_COLUMNS) <= set(reader.fieldnames or ()):
            raise ValueError(f"{csv_path}: header must name the columns {','.join(MANIFEST_COLUMNS)}")
        for row in reader:
            try:
                entries.append(
                    ManifestEntry(path=row["path"], speaker=int(row["speaker"]), sample=int(row["sample"]))
                )
            except (TypeError, ValueError):  # int(None) for a short row
                raise ValueError(f"{csv_path}: line {reader.line_num}: speaker and sample must be integers") from None
    return CorpusManifest(entries=tuple(entries), root=csv_path.parent)


def _prefix_spread_positions(n: int) -> list[float]:
    """n positions in [0, 1]: endpoints first, then a halving sequence.

    Speaker k >= 2 sits at 2^-(k-1), twice as close to an existing voice as
    its predecessor (0, 1, 1/2, 1/4, 1/8, ...). A two-speaker roster is
    maximally contrasted while every added speaker packs the voice space
    tighter, so identification difficulty rises strictly with roster size,
    the behavior the scaling benchmarks probe.
    """
    positions = [0.0, 1.0]
    while len(positions) < n:
        positions.append(2.0 ** -(len(positions) - 1))
    return positions[:n]


def _speaker_voices(n_speakers: int, seed: int) -> list[dict]:
    """Fixed per-speaker source-filter parameters.

    Each speaker occupies one position on a bounded voice axis; pitch and all
    three formants follow that position, plus a small seeded per-speaker
    offset so grids are not perfectly regular.
    """
    rng = np.random.default_rng(derive_seed(seed, "voices"))
    voices = []
    for position in _prefix_spread_positions(n_speakers):
        wobble = 1.0 + rng.uniform(-0.01, 0.01, 4)
        pitch = (PITCH_RANGE_HZ[0] + (PITCH_RANGE_HZ[1] - PITCH_RANGE_HZ[0]) * position) * wobble[0]
        formants = [
            (lo + (hi - lo) * position) * w
            for (lo, hi), w in zip(FORMANT_RANGES_HZ, wobble[1:])
        ]
        voices.append({"pitch": float(pitch), "formants": formants})
    return voices


def _formant_filter(formants, sample_rate: int) -> np.ndarray:
    """Denominator polynomial of a cascade of three two-pole resonators."""
    poly = np.array([1.0])
    for freq, bw in zip(formants, FORMANT_BANDWIDTHS_HZ):
        radius = np.exp(-np.pi * bw / sample_rate)
        theta = 2.0 * np.pi * freq / sample_rate
        poly = np.polymul(poly, [1.0, -2.0 * radius * np.cos(theta), radius**2])
    return poly


def _all_pole(denominator: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x through the stable filter 1 / denominator from rest, as lfilter([1.0], denominator, x).

    The FFT product is a circular convolution. Its length N leaves, past
    len(x), room for the slowest pole's response to decay below
    IMPULSE_DECAY, so the wrapped-around tail is below that; N is a power of
    two because other lengths are several times slower.
    """
    slowest = np.abs(np.roots(denominator)).max()
    tail = math.ceil(math.log(IMPULSE_DECAY) / math.log(slowest))
    n = 1 << (len(x) + tail - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, n) / np.fft.rfft(denominator, n), n)[: len(x)]


def _render_sample(voice: dict, seconds: float, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    n_total = int(round(seconds * sample_rate))
    n_lead = int(round(SILENCE_LEAD_SECONDS * sample_rate))
    n_voiced = max(n_total - n_lead, sample_rate // 4)

    # per-recording intonation and articulation drift
    pitch = voice["pitch"] * (1.0 + rng.uniform(-1, 1) * PITCH_DETUNE_PER_RECORDING)
    formants = [
        f * (1.0 + rng.uniform(-1, 1) * FORMANT_DETUNE_PER_RECORDING) for f in voice["formants"]
    ]
    excitation = np.zeros(n_voiced)
    position = 0.0
    while position < n_voiced:
        excitation[int(position)] = 1.0 + PULSE_AMP_JITTER * rng.normal()
        position += sample_rate / (pitch * (1.0 + PULSE_PERIOD_JITTER * rng.normal()))
    excitation += ASPIRATION_NOISE * rng.normal(size=n_voiced)

    voiced = _all_pole(_formant_filter(formants, sample_rate), excitation)
    voiced *= VOICED_RMS / np.sqrt(np.mean(voiced**2))

    samples = np.concatenate([rng.normal(0.0, SILENCE_NOISE_AMP, n_lead), voiced])[:n_total]
    peak = np.abs(samples).max()
    if peak > PEAK_LIMIT:
        samples = samples * (PEAK_LIMIT / peak)
    return samples


def generate_synthetic_corpus(
    n_speakers: int,
    samples_each: int,
    seconds: float,
    seed: int,
    out_dir,
    sample_rate: int = 16000,
) -> CorpusManifest:
    """Write a seeded source-filter voice corpus and its manifest CSV.

    Each speaker is a pulse train at a speaker-specific pitch through a
    speaker-specific three-formant all-pole filter, with jitter, aspiration
    noise and a leading quarter second of near-silence. Byte-identical for
    identical arguments. sample_rate must be an integer >= MIN_SAMPLE_RATE
    and seconds must outlast the silence lead-in; both are checked before
    anything is written.
    """
    if not 2 <= n_speakers <= 15:
        raise ValueError("n_speakers must lie in [2, 15]")
    if samples_each < 2:
        raise ValueError("need at least two samples per speaker")
    if not isinstance(sample_rate, int) or sample_rate < MIN_SAMPLE_RATE:
        raise ValueError(f"sample_rate must be an integer >= {MIN_SAMPLE_RATE} Hz, got {sample_rate!r}")
    # compared in samples, so that every recording holds at least one voiced sample
    if not math.isfinite(seconds) or round(seconds * sample_rate) <= round(SILENCE_LEAD_SECONDS * sample_rate):
        raise ValueError(
            f"seconds must be finite and longer than the {SILENCE_LEAD_SECONDS} s silence lead-in, got {seconds!r}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    voices = _speaker_voices(n_speakers, seed)
    entries = []
    for s, voice in enumerate(voices):
        for j in range(samples_each):
            rng = np.random.default_rng(derive_seed(seed, f"speaker:{s}:sample:{j}"))
            samples = _render_sample(voice, seconds, sample_rate, rng)
            name = f"speaker{s:02d}_sample{j}.wav"
            write_wav(out_dir / name, AudioSignal(samples=samples, sample_rate=sample_rate))
            entries.append(ManifestEntry(path=name, speaker=s, sample=j))

    manifest = CorpusManifest(entries=tuple(entries), root=out_dir, sample_rate=sample_rate)
    save_manifest(manifest, out_dir / "manifest.csv")
    return manifest
