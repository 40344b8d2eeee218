"""Shared dataset/model containers for the classifier families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch


# the least value of each trainer parameter that counts something (hidden: every layer size)
LOWER_BOUNDS = {"k": 1, "min_leaf": 1, "n_trees": 1, "hidden": 1, "batch_size": 1, "max_splits": 0, "epochs": 0}
# rates and scales, which must be > 0; None selects the trainer's default
POSITIVE_PARAMETERS = ("box_c", "kernel_scale", "lr")
DISTANCE_BLOCK_ROWS = 64  # rows per block temporary of squared_distances (measured: 32-256 time alike)


def check_ranges(params: dict, prefix: str = "") -> None:
    """Raise ValueError if a parameter among params lies below its LOWER_BOUNDS entry, is a rate or scale <= 0,
    or is a kernel_scale whose 2*kernel_scale**2 is not a finite normal float.

    prefix leads the message.
    """
    for key, value in params.items():
        if key in LOWER_BOUNDS and not min(np.atleast_1d(value)) >= LOWER_BOUNDS[key]:
            raise ValueError(f"{prefix}{key} must be >= {LOWER_BOUNDS[key]}, got {value!r}")
        if key in POSITIVE_PARAMETERS and value is not None and not value > 0:
            raise ValueError(f"{prefix}{key} must be > 0, got {value!r}")
        if key == "kernel_scale" and value is not None and not _kernel_divisor_is_normal(value):
            raise ValueError(f"{prefix}kernel_scale must make 2*kernel_scale**2 a finite normal float, got {value!r}")


def _kernel_divisor_is_normal(scale) -> bool:
    """Whether 2*scale**2, the Gaussian kernel's divisor, is a finite normal float (0 gives NaN scores, inf a constant kernel)."""
    with np.errstate(over="ignore", under="ignore"):
        return bool(np.finfo(np.float64).tiny <= 2.0 * np.float64(scale) ** 2 < np.inf)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row of a to every row of b, clamped at 0.

    Each entry is (|a_i|^2 + |b_j|^2) - 2 a_i.b_j. The cross term is one
    matrix product over all of a, since BLAS may round a row differently in a
    call with fewer rows, and it is turned into distances in place, DISTANCE_BLOCK_ROWS
    rows at a time, so the result is the one a x b array held.
    """
    sq_a, sq_b = (a**2).sum(axis=1), (b**2).sum(axis=1)
    d2 = 2.0 * a @ b.T
    for start in range(0, len(d2), DISTANCE_BLOCK_ROWS):
        rows = slice(start, start + DISTANCE_BLOCK_ROWS)
        block = d2[rows]
        np.subtract(sq_a[rows, None] + sq_b, block, out=block)
        np.maximum(block, 0.0, out=block)
    return d2


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
        # n labels dense in 0..K-1 lie in [0, n), so bincount never counts past n
        if labels.size and not (labels.min() >= 0 and labels.max() < labels.size and np.bincount(labels).all()):
            raise ValueError("labels must be dense in 0..K-1")
        if not mask.any():
            raise ValueError("training split is empty")
        if not np.bincount(labels[mask], minlength=labels.max() + 1).all():
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
