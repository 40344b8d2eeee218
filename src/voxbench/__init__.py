"""Speaker-identification pipeline toolkit and benchmark harness."""

__version__ = "0.1.0"

from .audio_io import AudioSignal, frame_signal, hamming_window, load_wav, write_wav
from .classifiers import (
    LabeledDataset,
    TrainedClassifier,
    bagged_trees_train,
    ffnn_train,
    knn_train,
    predict,
    svm_train,
    tree_train,
)
from .features import (
    ExtractorConfig,
    FeatureMatrix,
    bark_scale,
    default_config,
    extract,
    levinson_durbin,
    lpc_to_cepstrum,
    mel_scale,
    pre_emphasize,
)
from .preprocessing import SilenceModel, VoicedSegments, fit_silence_model, remove_silence, standardize
from .reduction import (
    Embedding,
    PcaModel,
    SneConfig,
    pca_fit,
    pca_transform,
    reduce_for_pipeline,
    sne_fit,
    sne_p_matrix,
)

__all__ = [
    "AudioSignal",
    "Embedding",
    "ExtractorConfig",
    "FeatureMatrix",
    "LabeledDataset",
    "PcaModel",
    "SilenceModel",
    "SneConfig",
    "TrainedClassifier",
    "VoicedSegments",
    "bagged_trees_train",
    "bark_scale",
    "default_config",
    "extract",
    "ffnn_train",
    "fit_silence_model",
    "frame_signal",
    "hamming_window",
    "knn_train",
    "levinson_durbin",
    "load_wav",
    "lpc_to_cepstrum",
    "mel_scale",
    "pca_fit",
    "pca_transform",
    "pre_emphasize",
    "predict",
    "reduce_for_pipeline",
    "remove_silence",
    "sne_fit",
    "sne_p_matrix",
    "standardize",
    "svm_train",
    "tree_train",
    "write_wav",
]
