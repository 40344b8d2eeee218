"""Two-hidden-layer feed-forward network with softmax output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteLoss
from .base import LabeledDataset, TrainedClassifier, check_counts

INIT_HALF_RANGE = 0.5
DEFAULT_HIDDEN = (20, 10)
DEFAULT_EPOCHS = 200
DEFAULT_LR = 0.3
DEFAULT_BATCH = 32


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class FeedForwardNet:
    """Weights of a d -> h1 -> h2 -> K network (sigmoid hidden, softmax out)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @classmethod
    def initialized(cls, dim, hidden, classes, rng):
        h1, h2 = hidden
        u = lambda *shape: rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, shape)
        return cls(w1=u(dim, h1), b1=u(h1), w2=u(h1, h2), b2=u(h2), w3=u(h2, classes), b3=u(classes))

    def forward(self, x):
        a1 = _sigmoid(x @ self.w1 + self.b1)
        a2 = _sigmoid(a1 @ self.w2 + self.b2)
        return _softmax(a2 @ self.w3 + self.b3)

    def scores(self, queries: np.ndarray) -> np.ndarray:
        return self.forward(queries)

    def loss_and_grads(self, x, labels):
        """Mean cross-entropy over the batch and its weight gradients."""
        n = x.shape[0]
        a1 = _sigmoid(x @ self.w1 + self.b1)
        a2 = _sigmoid(a1 @ self.w2 + self.b2)
        probs = _softmax(a2 @ self.w3 + self.b3)
        picked = probs[np.arange(n), labels]
        loss = float(-np.log(np.maximum(picked, 1e-300)).mean())

        delta3 = probs.copy()
        delta3[np.arange(n), labels] -= 1.0
        delta3 /= n
        grad_w3 = a2.T @ delta3
        grad_b3 = delta3.sum(axis=0)
        delta2 = (delta3 @ self.w3.T) * a2 * (1.0 - a2)
        grad_w2 = a1.T @ delta2
        grad_b2 = delta2.sum(axis=0)
        delta1 = (delta2 @ self.w2.T) * a1 * (1.0 - a1)
        grad_w1 = x.T @ delta1
        grad_b1 = delta1.sum(axis=0)
        return loss, (grad_w1, grad_b1, grad_w2, grad_b2, grad_w3, grad_b3)


def ffnn_train(
    data: LabeledDataset,
    hidden: tuple[int, int] = DEFAULT_HIDDEN,
    epochs: int = DEFAULT_EPOCHS,
    lr: float = DEFAULT_LR,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH,
) -> TrainedClassifier:
    """Seeded mini-batch gradient descent on the cross-entropy loss."""
    check_counts({"hidden": hidden, "batch_size": batch_size})
    x, y = data.train_points, data.train_labels
    rng = np.random.default_rng(seed)
    net = FeedForwardNet.initialized(x.shape[1], hidden, data.class_count, rng)

    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, grads = net.loss_and_grads(x[batch], y[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss}")
            for weight, grad in zip((net.w1, net.b1, net.w2, net.b2, net.w3, net.b3), grads):
                weight -= lr * grad
    return TrainedClassifier.fitted("feed forward", net, data)
