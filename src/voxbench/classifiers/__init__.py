"""The five classifier families and their shared containers."""

from __future__ import annotations

import inspect

from ..errors import check_like_default
from .base import LabeledDataset, TrainedClassifier, check_counts, predict
from .ffnn import FeedForwardNet, ffnn_train
from .knn import knn_train
from .svm import svm_train
from .trees import bagged_trees_train, tree_train

# canonical benchmark names, in report row order, with the trainer of each
_TRAINERS = {
    "complex tree": tree_train,
    "weighted knn": knn_train,
    "fine svm": svm_train,
    "feed forward": ffnn_train,
    "bagged trees": bagged_trees_train,
}
CLASSIFIER_NAMES = tuple(_TRAINERS)


def check_classifier(name: str, params: dict) -> None:
    """Raise ValueError unless name is a known classifier and params are its keywords, typed as their defaults and in range."""
    if name not in _TRAINERS:
        raise ValueError(f"unknown classifier {name!r}; expected one of {CLASSIFIER_NAMES}")
    # the data and the stage seed are passed by train_by_name, never by params
    signature = inspect.signature(_TRAINERS[name]).parameters
    defaults = {key: p.default for key, p in signature.items() if key not in ("data", "seed")}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"classifier {name!r} takes no parameter {', '.join(unknown)}; it takes {', '.join(defaults)}"
        )
    for key, value in params.items():
        check_like_default(f"classifier {name!r} parameter {key}", value, defaults[key])
    check_counts(params, prefix=f"classifier {name!r} parameter ")


def train_by_name(name: str, data: LabeledDataset, seed: int = 0, **params) -> TrainedClassifier:
    """Train a named classifier; params override its trainer's defaults, seed goes to seeded trainers."""
    check_classifier(name, params)
    trainer = _TRAINERS[name]
    if "seed" in inspect.signature(trainer).parameters:
        params["seed"] = seed
    return trainer(data, **params)


__all__ = [
    "CLASSIFIER_NAMES",
    "FeedForwardNet",
    "LabeledDataset",
    "TrainedClassifier",
    "bagged_trees_train",
    "check_classifier",
    "ffnn_train",
    "knn_train",
    "predict",
    "svm_train",
    "train_by_name",
    "tree_train",
]
