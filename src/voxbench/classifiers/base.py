"""Shared dataset/model containers for the classifier families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch


# trainer parameters that count something, so each must be >= 1 (hidden: every layer size)
COUNT_PARAMETERS = ("k", "min_leaf", "n_trees", "hidden", "batch_size")


def check_counts(params: dict, prefix: str = "") -> None:
    """Raise ValueError if a count parameter among params is below 1; prefix leads the message."""
    for key, value in params.items():
        if key in COUNT_PARAMETERS and min(np.atleast_1d(value)) < 1:
            raise ValueError(f"{prefix}{key} must be >= 1, got {value!r}")


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row of a to every row of b, clamped at 0."""
    d2 = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * a @ b.T
    return np.maximum(d2, 0.0)


@dataclass(frozen=True)
class LabeledDataset:
    """Frame vectors with speaker ids and a train/test split by row."""

    points: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        mask = np.asarray(self.train_mask, dtype=bool)
        if points.ndim != 2 or labels.shape != (points.shape[0],) or mask.shape != labels.shape:
            raise ValueError("points must be n x d with matching labels and train_mask")
        classes = np.unique(labels)
        if not np.array_equal(classes, np.arange(classes.size)):
            raise ValueError("labels must be dense in 0..K-1")
        if not mask.any():
            raise ValueError("training split is empty")
        if np.unique(labels[mask]).size != classes.size:
            raise ValueError("every class must appear in the training split")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "train_mask", mask)

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def train_points(self) -> np.ndarray:
        return self.points[self.train_mask]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[self.train_mask]

    @property
    def test_points(self) -> np.ndarray:
        return self.points[~self.train_mask]

    @property
    def test_labels(self) -> np.ndarray:
        return self.labels[~self.train_mask]


@dataclass(frozen=True)
class TrainedClassifier:
    """A fitted model: kind tag, payload with a scores() method, and sizes."""

    kind: str
    payload: object
    class_count: int
    input_dim: int

    @classmethod
    def fitted(cls, kind: str, payload, data: LabeledDataset) -> "TrainedClassifier":
        """The model of payload, trained on data: its class count and column count."""
        return cls(kind=kind, payload=payload, class_count=data.class_count, input_dim=data.points.shape[1])


def predict(model: TrainedClassifier, points) -> tuple[np.ndarray, np.ndarray]:
    """Labels and per-class score rows for a matrix of query points.

    The label is the argmax of the score row; ties resolve to the smallest
    class id.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise DimensionMismatch(f"queries have {x.shape[1]} columns, model expects {model.input_dim}")
    scores = model.payload.scores(x)
    return scores.argmax(axis=1), scores
