"""Exception types raised across the pipeline, and the type check of user-set parameters."""

import dataclasses
import numbers


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


class FrameExceedsFft(PipelineError):
    """An analysis frame holds more samples than the FFT size at this sample rate."""


# --- dimensionality reduction ---

class DataTooSmall(PipelineError):
    """Too few rows or columns for the requested reduction."""


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


# --- parameter values ---

def check_like_default(label: str, value, default) -> None:
    """Raise ValueError naming label unless value has the type of default.

    An int default takes an integer, a float default a real number, a bool
    default a bool, a None default a real number or None, a tuple default a
    list or tuple of as many integers, and any other default its own type.
    A bool never counts as a number.
    """

    def number(v, kind) -> bool:
        return isinstance(v, kind) and not isinstance(v, bool)

    if isinstance(default, bool):
        ok, expected = isinstance(value, bool), "a bool"
    elif number(default, numbers.Integral):
        ok, expected = number(value, numbers.Integral), "an integer"
    elif number(default, numbers.Real):
        ok, expected = number(value, numbers.Real), "a real number"
    elif default is None:
        ok, expected = value is None or number(value, numbers.Real), "a real number or null"
    elif isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and len(value) == len(default)
        ok = ok and all(number(v, numbers.Integral) for v in value)
        expected = f"a list of {len(default)} integers"
    else:
        ok, expected = isinstance(value, type(default)), f"a {type(default).__name__}"
    if not ok:
        raise ValueError(f"{label} must be {expected}, got {value!r}")


def check_parameter_names(label: str, given, allowed) -> None:
    """Raise ValueError naming label and the allowed names unless every given name is allowed."""
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(f"{label} takes no parameter {', '.join(unknown)}; it takes {', '.join(allowed)}")


def check_fields_like_defaults(spec, prefix: str = "") -> None:
    """check_like_default on every field of the dataclass spec after the first; prefix leads each label."""
    for knob in dataclasses.fields(spec)[1:]:
        check_like_default(f"{prefix}{knob.name}", getattr(spec, knob.name), knob.default)


def check_unread_at_defaults(spec, unread, reader: str) -> None:
    """Raise ValueError naming reader unless each field of the dataclass spec named in unread keeps its default."""
    for knob in dataclasses.fields(spec):
        if knob.name in unread and getattr(spec, knob.name) != knob.default:
            raise ValueError(
                f"{reader} does not read {knob.name}; it must keep its default {knob.default!r}, "
                f"got {getattr(spec, knob.name)!r}"
            )
