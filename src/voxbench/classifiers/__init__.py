"""The five classifier families and their shared containers."""

from __future__ import annotations

import inspect

from .base import LabeledDataset, TrainedClassifier, predict
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
    """Raise ValueError unless name is a known classifier and params are keywords it takes."""
    if name not in _TRAINERS:
        raise ValueError(f"unknown classifier {name!r}; expected one of {CLASSIFIER_NAMES}")
    # the data and the stage seed are passed by train_by_name, never by params
    accepted = [p for p in inspect.signature(_TRAINERS[name]).parameters if p not in ("data", "seed")]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"classifier {name!r} takes no parameter {', '.join(unknown)}; it takes {', '.join(accepted)}"
        )


def train_by_name(name: str, data: LabeledDataset, seed: int = 0, **params) -> TrainedClassifier:
    """Train one of the named presets; params override the preset defaults."""
    check_classifier(name, params)
    if name == "complex tree":
        return tree_train(data, **{"max_splits": 100, "min_leaf": 1, **params})
    if name == "weighted knn":
        return knn_train(data, **{"k": 10, **params})
    if name == "fine svm":
        return svm_train(data, **params)
    if name == "feed forward":
        return ffnn_train(data, seed=seed, **params)
    return bagged_trees_train(data, seed=seed, **{"n_trees": 30, **params})


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
