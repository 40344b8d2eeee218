"""Soft-margin SVM with a Gaussian kernel, trained by SMO-style coordinate ascent.

Multiclass problems are handled one-vs-one with majority voting; summed
decision margins break vote ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NoConvergence
from .base import LabeledDataset, TrainedClassifier, check_ranges, squared_distances

KKT_TOLERANCE = 1e-3
MIN_ALPHA_STEP = 1e-10
MAX_PASSES = 300
MARGIN_TIEBREAK = 1e-3  # well below one vote; orders equal-vote classes only


def rbf_kernel(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """exp(-d2 / (2 scale^2)) of the squared distances d2, computed over d2 in place."""
    k = squared_distances(a, b)
    with np.errstate(over="ignore"):  # a distance far beyond the scale: the kernel is 0
        np.negative(k, out=k)
        np.divide(k, 2.0 * scale**2, out=k)
        return np.exp(k, out=k)


@dataclass
class BinarySvm:
    """Dual solution of one two-class subproblem (labels in {-1, +1})."""

    points: np.ndarray
    targets: np.ndarray
    alphas: np.ndarray
    bias: float
    kernel_scale: float
    box_c: float

    def decision(self, queries: np.ndarray) -> np.ndarray:
        k = rbf_kernel(queries, self.points, self.kernel_scale)
        return k @ (self.alphas * self.targets) + self.bias


def _smo(x, t, box_c, scale) -> BinarySvm:
    """Pairwise coordinate ascent on the dual until KKT holds within KKT_TOLERANCE.

    Deterministic: the first index sweeps in order, the partner maximizes
    |E_i - E_j|.
    """
    n = x.shape[0]
    kernel = rbf_kernel(x, x, scale)
    alphas = np.zeros(n)
    bias = 0.0
    errors = -t.astype(np.float64)  # decision(x) - t with all-zero alphas

    for _ in range(MAX_PASSES):
        changed = 0
        for i in range(n):
            r = errors[i] * t[i]
            if not ((r < -KKT_TOLERANCE and alphas[i] < box_c) or (r > KKT_TOLERANCE and alphas[i] > 0)):
                continue
            gap = np.abs(errors[i] - errors)
            gap[i] = -1.0
            j = int(gap.argmax())

            if t[i] == t[j]:
                lo = max(0.0, alphas[i] + alphas[j] - box_c)
                hi = min(box_c, alphas[i] + alphas[j])
            else:
                lo = max(0.0, alphas[j] - alphas[i])
                hi = min(box_c, box_c + alphas[j] - alphas[i])
            if hi - lo < MIN_ALPHA_STEP:
                continue
            eta = 2.0 * kernel[i, j] - kernel[i, i] - kernel[j, j]
            if eta >= 0:
                continue

            alpha_j = np.clip(alphas[j] - t[j] * (errors[i] - errors[j]) / eta, lo, hi)
            delta_j = alpha_j - alphas[j]
            if abs(delta_j) < MIN_ALPHA_STEP:
                continue
            delta_i = -t[i] * t[j] * delta_j

            b1 = bias - errors[i] - t[i] * delta_i * kernel[i, i] - t[j] * delta_j * kernel[i, j]
            b2 = bias - errors[j] - t[i] * delta_i * kernel[i, j] - t[j] * delta_j * kernel[j, j]
            alpha_i = alphas[i] + delta_i
            if 0 < alpha_i < box_c:
                new_bias = b1
            elif 0 < alpha_j < box_c:
                new_bias = b2
            else:
                new_bias = (b1 + b2) / 2.0

            errors += (
                t[i] * delta_i * kernel[i]
                + t[j] * delta_j * kernel[j]
                + (new_bias - bias)
            )
            alphas[i] = alpha_i
            alphas[j] = alpha_j
            bias = new_bias
            changed += 1
        if changed == 0:
            return BinarySvm(
                points=x, targets=t, alphas=alphas, bias=bias,
                kernel_scale=scale, box_c=box_c,
            )
    raise NoConvergence(f"SMO did not reach KKT tolerance in {MAX_PASSES} passes")


@dataclass(frozen=True)
class SvmModel:
    problems: list = field(repr=False)  # (class_a, class_b, BinarySvm)
    class_count: int = 0

    def scores(self, queries: np.ndarray) -> np.ndarray:
        votes = np.zeros((queries.shape[0], self.class_count))
        margins = np.zeros_like(votes)
        for class_a, class_b, svm in self.problems:
            decision = svm.decision(queries)
            wins_b = decision > 0
            votes[wins_b, class_b] += 1.0
            votes[~wins_b, class_a] += 1.0
            margins[:, class_b] += decision
            margins[:, class_a] -= decision
        return votes + MARGIN_TIEBREAK * np.tanh(margins / max(1, self.class_count - 1))


def svm_train(data: LabeledDataset, kernel_scale: float | None = None, box_c: float = 1.0) -> TrainedClassifier:
    """One-vs-one Gaussian-kernel SVMs; scale defaults to sqrt(d)/4 ("fine")."""
    check_ranges({"kernel_scale": kernel_scale, "box_c": box_c})
    if data.class_count < 2:
        raise ValueError("need at least two classes")
    x, y = data.train_points, data.train_labels
    if kernel_scale is None:
        kernel_scale = np.sqrt(x.shape[1]) / 4.0
    problems = []
    for a in range(data.class_count):
        for b in range(a + 1, data.class_count):
            rows = (y == a) | (y == b)
            targets = np.where(y[rows] == b, 1.0, -1.0)
            problems.append((a, b, _smo(x[rows], targets, box_c, kernel_scale)))
    return TrainedClassifier.fitted("fine svm", SvmModel(problems=problems, class_count=data.class_count), data)
