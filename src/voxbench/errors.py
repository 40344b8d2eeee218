"""Exception types raised across the pipeline."""


class PipelineError(Exception):
    """Base class for all voxbench errors."""


# --- audio input ---

class UnreadableAudio(PipelineError):
    """Audio file cannot be opened, or ends inside its headers."""


class NotWav(PipelineError):
    """File is not a RIFF/WAVE container."""


class UnsupportedEncoding(PipelineError):
    """WAV file is not mono 16-bit PCM."""


class EmptyAudio(PipelineError):
    """WAV file contains zero data samples."""


class SignalTooShort(PipelineError):
    """Signal is shorter than one analysis frame."""


# --- silence removal ---

class TooShort(PipelineError):
    """Signal shorter than the leading segment used to model silence."""


class DegenerateSilence(PipelineError):
    """Leading segment is constant; its spread cannot be estimated."""


class NoVoicedContent(PipelineError):
    """No analysis block passed the voicing test."""


# --- feature extraction ---

class FilterbankTooDense(PipelineError):
    """More filters requested than usable FFT bins."""


class UnstableRecursion(PipelineError):
    """A reflection coefficient reached magnitude >= 1."""


# --- dimensionality reduction ---

class DegenerateData(PipelineError):
    """All rows identical; principal directions are undefined."""


class DimensionMismatch(PipelineError):
    """Input dimensionality does not match the fitted model."""


class PerplexityUnreachable(PipelineError):
    """Bandwidth search could not match the requested perplexity."""


class NonFiniteCost(PipelineError):
    """Embedding cost became non-finite during optimization."""


# --- classifiers ---

class KTooLarge(PipelineError):
    """k exceeds the number of training points."""


class NoConvergence(PipelineError):
    """Optimizer hit its iteration budget before reaching tolerance."""


class NonFiniteLoss(PipelineError):
    """Training loss became non-finite."""


# --- benchmark harness ---

class UndefinedRoc(PipelineError):
    """ROC needs at least one positive and one negative test frame."""
