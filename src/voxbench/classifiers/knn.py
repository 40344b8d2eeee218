"""Distance-weighted k-nearest-neighbor classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KTooLarge
from .base import LabeledDataset, TrainedClassifier, check_ranges, squared_distances

DISTANCE_EPSILON = 1e-12  # guards exact hits; an on-point query dominates the vote
SORT_BLOCK_ROWS = 64  # query rows per argsort; only their k nearest indices are kept


@dataclass(frozen=True)
class WeightedKnnModel:
    points: np.ndarray
    labels: np.ndarray
    k: int
    class_count: int

    def scores(self, queries: np.ndarray) -> np.ndarray:
        d2 = squared_distances(queries, self.points)
        nearest = np.empty((len(d2), self.k), dtype=np.intp)
        for start in range(0, len(d2), SORT_BLOCK_ROWS):
            rows = slice(start, start + SORT_BLOCK_ROWS)
            nearest[rows] = np.argsort(d2[rows], axis=1, kind="stable")[:, : self.k]
        weights = 1.0 / (DISTANCE_EPSILON + np.take_along_axis(d2, nearest, axis=1))
        out = np.zeros((queries.shape[0], self.class_count))
        neighbor_labels = self.labels[nearest]
        for c in range(self.class_count):
            out[:, c] = np.where(neighbor_labels == c, weights, 0.0).sum(axis=1)
        return out / out.sum(axis=1, keepdims=True)


def knn_train(data: LabeledDataset, k: int = 10) -> TrainedClassifier:
    """Store the training split; all work happens at query time."""
    check_ranges({"k": k})
    train = data.train_points
    if k > train.shape[0]:
        raise KTooLarge(f"k={k} exceeds {train.shape[0]} training points")
    payload = WeightedKnnModel(points=train, labels=data.train_labels, k=k, class_count=data.class_count)
    return TrainedClassifier.fitted("weighted knn", payload, data)
