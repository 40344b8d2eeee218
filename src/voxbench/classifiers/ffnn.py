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
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class FeedForwardNet:
    """Weights of a d -> h1 -> h2 -> K network (sigmoid hidden, softmax out).

    The weights may carry a leading stack axis: E nets of one shape, w1 of
    shape (E, d, h1), b1 (E, h1) and so on, each net run on its own batch of
    an (E, m, d) input. Every net of a stack computes what it computes alone.
    """

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

    @property
    def weights(self) -> tuple:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)

    def _activations(self, x):
        a1 = _sigmoid(x @ self.w1 + self.b1[..., None, :])
        a2 = _sigmoid(a1 @ self.w2 + self.b2[..., None, :])
        return a1, a2, _softmax(a2 @ self.w3 + self.b3[..., None, :])

    def forward(self, x):
        return self._activations(x)[2]

    def scores(self, queries: np.ndarray) -> np.ndarray:
        return self.forward(queries)

    def loss_and_grads(self, x, labels):
        """Mean cross-entropy over the batch (one per net of a stack) and its weight gradients."""
        n = x.shape[-2]
        a1, a2, probs = self._activations(x)
        onehot = labels[..., None] == np.arange(probs.shape[-1])
        picked = probs[onehot].reshape(labels.shape)
        loss = -np.log(np.maximum(picked, 1e-300)).mean(axis=-1)

        delta3 = (probs - onehot) / n
        grad_w3 = a2.swapaxes(-1, -2) @ delta3
        grad_b3 = delta3.sum(axis=-2)
        delta2 = (delta3 @ self.w3.swapaxes(-1, -2)) * a2 * (1.0 - a2)
        grad_w2 = a1.swapaxes(-1, -2) @ delta2
        grad_b2 = delta2.sum(axis=-2)
        delta1 = (delta2 @ self.w2.swapaxes(-1, -2)) * a1 * (1.0 - a1)
        grad_w1 = x.swapaxes(-1, -2) @ delta1
        grad_b1 = delta1.sum(axis=-2)
        return loss, (grad_w1, grad_b1, grad_w2, grad_b2, grad_w3, grad_b3)


def ffnn_train_many(
    datasets,
    seeds,
    hidden: tuple[int, int] = DEFAULT_HIDDEN,
    epochs: int = DEFAULT_EPOCHS,
    lr: float = DEFAULT_LR,
    batch_size: int = DEFAULT_BATCH,
) -> list:
    """ffnn_train on each dataset with its seed, every net in one lockstep stack.

    The datasets must share train shape and class count. Each net keeps its
    own generator, initial weights and per-epoch order, and ends equal to
    the net trained alone. A net whose loss turns non-finite gets the
    NonFiniteLoss of its first such batch as its entry; the others train on.
    """
    check_counts({"hidden": hidden, "batch_size": batch_size})
    if len({(data.train_points.shape, data.class_count) for data in datasets}) > 1:
        raise ValueError("lockstep datasets must share train shape and class count")
    x = np.stack([data.train_points for data in datasets])
    y = np.stack([data.train_labels for data in datasets])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    nets = [FeedForwardNet.initialized(x.shape[2], hidden, datasets[0].class_count, rng) for rng in rngs]
    stack = FeedForwardNet(*(np.stack(weights) for weights in zip(*(net.weights for net in nets))))
    results: list = [None] * len(datasets)

    n = x.shape[1]
    # a diverged net overflows to inf and nan; its stacked slice never mixes with the others
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            if all(result is not None for result in results):
                break
            order = np.stack([rng.permutation(n) for rng in rngs])
            xs = np.take_along_axis(x, order[..., None], axis=1)
            ys = np.take_along_axis(y, order, axis=1)
            for start in range(0, n, batch_size):
                batch = slice(start, start + batch_size)
                loss, grads = stack.loss_and_grads(xs[:, batch], ys[:, batch])
                for i in np.flatnonzero(~np.isfinite(loss)):
                    if results[i] is None:
                        results[i] = NonFiniteLoss(f"loss became {loss[i]}")
                for weight, grad in zip(stack.weights, grads):
                    weight -= lr * grad
    for i, data in enumerate(datasets):
        if results[i] is None:
            net = FeedForwardNet(*(weight[i].copy() for weight in stack.weights))
            results[i] = TrainedClassifier.fitted("feed forward", net, data)
    return results


def ffnn_train(
    data: LabeledDataset,
    hidden: tuple[int, int] = DEFAULT_HIDDEN,
    epochs: int = DEFAULT_EPOCHS,
    lr: float = DEFAULT_LR,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH,
) -> TrainedClassifier:
    """Seeded mini-batch gradient descent on the cross-entropy loss."""
    (result,) = ffnn_train_many([data], [seed], hidden, epochs, lr, batch_size)
    if isinstance(result, NonFiniteLoss):
        raise result
    return result
