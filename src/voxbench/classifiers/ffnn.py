"""Two-hidden-layer feed-forward network with softmax output."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteLoss
from .base import LabeledDataset, TrainedClassifier, check_ranges

INIT_HALF_RANGE = 0.5
DEFAULT_HIDDEN = (20, 10)
DEFAULT_EPOCHS = 200
DEFAULT_LR = 0.3
DEFAULT_BATCH = 32


def _sigmoid_(z):
    """1 / (1 + exp(-z)), written over z."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _packed_views(buffer, shapes) -> list:
    """(E, *shape) views of consecutive column blocks of an (E, P) buffer."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[:, start : start + size].reshape(buffer.shape[0], *shape))
        start += size
    return views


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

    def forward(self, x):
        return _Workspace(self, x.shape).forward(x)

    def scores(self, queries: np.ndarray) -> np.ndarray:
        return self.forward(queries)

    def loss_and_grads(self, x, labels):
        """Mean cross-entropy over the batch (one per net of a stack) and its weight gradients."""
        workspace = _Workspace(self, x.shape)
        probs = workspace.forward(x)
        onehot = labels[..., None] == np.arange(probs.shape[-1])
        picked = probs[onehot].reshape(labels.shape)
        loss = -np.log(np.maximum(picked, 1e-300)).mean(axis=-1)
        grads = tuple(np.empty_like(weight) for weight in self.weights)
        workspace.backprop(x, onehot, grads)
        return loss, grads


class _Workspace:
    """The arrays of a net's (or a stack's) forward and backward pass on batches of one shape, allocated once.

    It keeps views of the weights (transposed, and biases broadcast over the
    rows), so the net must be updated in place while its workspace is used.
    Every pass writes its activations and deltas over the last pass's.
    """

    def __init__(self, net: FeedForwardNet, x_shape):
        *lead, m, _ = x_shape
        self.rows = m
        self.w1, self.w2, self.w3 = net.w1, net.w2, net.w3
        self.w2_t, self.w3_t = net.w2.swapaxes(-1, -2), net.w3.swapaxes(-1, -2)
        self.b1, self.b2, self.b3 = (b[..., None, :] for b in (net.b1, net.b2, net.b3))
        self.a1, self.a2, self.a3 = (np.empty((*lead, m, b.shape[-1])) for b in (net.b1, net.b2, net.b3))
        self.a1_t, self.a2_t = self.a1.swapaxes(-1, -2), self.a2.swapaxes(-1, -2)
        self.delta1, self.delta2 = np.empty_like(self.a1), np.empty_like(self.a2)
        self.row = np.empty((*lead, m, 1))

    def forward(self, x):
        """The softmax output of x (in the workspace's a3), after the sigmoid layers a1 and a2."""
        for inputs, w, b, a in ((x, self.w1, self.b1, self.a1), (self.a1, self.w2, self.b2, self.a2)):
            np.matmul(inputs, w, out=a)
            a += b
            _sigmoid_(a)
        z = np.matmul(self.a2, self.w3, out=self.a3)
        z += self.b3
        z -= np.maximum.reduce(z, axis=-1, keepdims=True, out=self.row)
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=-1, keepdims=True, out=self.row)
        return z

    def backprop(self, x, onehot, grads) -> None:
        """Write the gradients of the batch-mean cross-entropy into grads.

        onehot is the one-hot of the labels, (..., m, K); grads holds six
        arrays shaped like the weights. A net whose softmax output has a NaN
        row gets a NaN in every entry of its b3 gradient.
        """
        grad_w1, grad_b1, grad_w2, grad_b2, grad_w3, grad_b3 = grads
        a1, a2, delta3 = self.a1, self.a2, self.forward(x)
        delta3 -= onehot
        delta3 /= self.rows
        np.matmul(self.a2_t, delta3, out=grad_w3)
        np.add.reduce(delta3, axis=-2, out=grad_b3)
        delta2 = np.matmul(delta3, self.w3_t, out=self.delta2)
        delta2 *= a2
        delta2 *= np.subtract(1.0, a2, out=a2)
        np.matmul(self.a1_t, delta2, out=grad_w2)
        np.add.reduce(delta2, axis=-2, out=grad_b2)
        delta1 = np.matmul(delta2, self.w2_t, out=self.delta1)
        delta1 *= a1
        delta1 *= np.subtract(1.0, a1, out=a1)
        np.matmul(x.swapaxes(-1, -2), delta1, out=grad_w1)
        np.add.reduce(delta1, axis=-2, out=grad_b1)


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
    check_ranges({"hidden": hidden, "epochs": epochs, "lr": lr, "batch_size": batch_size})
    if len({(data.train_points.shape, data.class_count) for data in datasets}) > 1:
        raise ValueError("lockstep datasets must share train shape and class count")
    x = np.stack([data.train_points for data in datasets])
    y = np.stack([data.train_labels for data in datasets])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    nets = [FeedForwardNet.initialized(x.shape[2], hidden, datasets[0].class_count, rng) for rng in rngs]
    # every weight and gradient of the stack is a view of one buffer, so an update is two calls
    shapes = [weight.shape for weight in nets[0].weights]
    params = np.stack([np.concatenate([weight.ravel() for weight in net.weights]) for net in nets])
    grads, step = np.empty_like(params), np.empty_like(params)
    stack = FeedForwardNet(*_packed_views(params, shapes))
    grad_views = _packed_views(grads, shapes)
    onehot = (y[..., None] == np.arange(datasets[0].class_count)).astype(np.float64)
    nets_axis = np.arange(len(datasets))[:, None]
    results: list = [None] * len(datasets)

    n = x.shape[1]
    batch_lengths = {min(batch_size, n - start) for start in range(0, n, batch_size)}
    workspaces = {m: _Workspace(stack, (len(datasets), m, x.shape[2])) for m in batch_lengths}
    # a diverged net overflows to inf and nan; its stacked slice never mixes with the others
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            if all(result is not None for result in results):
                break
            order = np.stack([rng.permutation(n) for rng in rngs])
            xs, targets = x[nets_axis, order], onehot[nets_axis, order]
            for start in range(0, n, batch_size):
                batch = slice(start, start + batch_size)
                workspaces[min(batch_size, n - start)].backprop(xs[:, batch], targets[:, batch], grad_views)
                np.multiply(grads, lr, out=step)
                params -= step
            # A batch loss is finite unless a softmax row, and with it the net's whole b3 gradient, is NaN.
            # A finite b3 gradient is a batch mean of softmax - one-hot, within [-1, 1], so b3 turns NaN
            # exactly at such a batch and stays NaN: one check per epoch finds every such net.
            for i in np.flatnonzero(np.isnan(stack.b3[:, 0])):
                if results[i] is None:
                    results[i] = NonFiniteLoss("loss became nan")
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
