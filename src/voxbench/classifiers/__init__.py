"""The five classifier families and their shared containers."""

from __future__ import annotations

import inspect

from ..errors import PipelineError, check_like_default, check_parameter_names
from .base import LabeledDataset, TrainedClassifier, check_ranges, predict
from .ffnn import FeedForwardNet, ffnn_train, ffnn_train_many
from .knn import knn_train
from .svm import svm_train
from .trees import bagged_trees_train, tree_train, tree_train_many

# canonical benchmark names, in report row order, with the trainer of each
_TRAINERS = {
    "complex tree": tree_train,
    "weighted knn": knn_train,
    "fine svm": svm_train,
    "feed forward": ffnn_train,
    "bagged trees": bagged_trees_train,
}
# families that train a group of datasets with one train shape and class count in lockstep
_LOCKSTEP_TRAINERS = {"complex tree": tree_train_many, "feed forward": ffnn_train_many}
CLASSIFIER_NAMES = tuple(_TRAINERS)


def check_classifier(name: str, params: dict) -> None:
    """Raise ValueError unless name is a known classifier and params are its keywords, typed as their defaults and in range."""
    if name not in _TRAINERS:
        raise ValueError(f"unknown classifier {name!r}; expected one of {CLASSIFIER_NAMES}")
    # the data and the stage seed are passed by train_by_name, never by params
    signature = inspect.signature(_TRAINERS[name]).parameters
    defaults = {key: p.default for key, p in signature.items() if key not in ("data", "seed")}
    check_parameter_names(f"classifier {name!r}", params, defaults)
    for key, value in params.items():
        check_like_default(f"classifier {name!r} parameter {key}", value, defaults[key])
    check_ranges(params, prefix=f"classifier {name!r} parameter ")


def train_by_name(name: str, datasets, seeds, **params) -> list:
    """Train a named classifier on each dataset; params override its trainer's defaults.

    Returns a list with one entry per dataset, in order: its TrainedClassifier,
    or the PipelineError that stopped its training. seeds[i] goes with
    datasets[i] to seeded trainers. Feed forward and complex tree train each
    group of datasets that share train shape and class count in one lockstep
    call; every model equals the one its dataset trains alone.
    """
    check_classifier(name, params)
    trainer = _TRAINERS[name]
    seeded = "seed" in inspect.signature(trainer).parameters
    if name in _LOCKSTEP_TRAINERS:
        results = [None] * len(datasets)
        groups: dict = {}
        for i, data in enumerate(datasets):
            groups.setdefault((data.train_points.shape, data.class_count), []).append(i)
        for members in groups.values():
            group_params = {**params, "seeds": [seeds[i] for i in members]} if seeded else params
            trained = _LOCKSTEP_TRAINERS[name]([datasets[i] for i in members], **group_params)
            for i, result in zip(members, trained):
                results[i] = result
        return results
    results = []
    for data, seed in zip(datasets, seeds):
        try:
            results.append(trainer(data, seed=seed, **params) if seeded else trainer(data, **params))
        except PipelineError as exc:
            results.append(exc)
    return results


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
