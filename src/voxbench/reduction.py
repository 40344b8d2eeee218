"""Dimensionality reduction: PCA and stochastic neighbor embedding.

The embedding uses a Gaussian kernel in both spaces by default (conditional
neighbor probabilities, summed per-point KL cost); a Student-t low-dimensional
kernel is available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateData,
    DimensionMismatch,
    NonFiniteCost,
    PerplexityUnreachable,
)

EIGENVALUE_CLAMP = -1e-10
PERPLEXITY_TOL = 1e-4
MAX_BANDWIDTH_STEPS = 100

# 0.2 holds across dataset sizes; larger rates diverge once the late momentum
# phase kicks in (verified empirically from n=10 up to n~1300)
DEFAULT_LEARNING_RATE = 0.2
DEFAULT_MAX_ITER = 500
INIT_STD = 1e-2
SNE_KERNELS = ("gaussian", "student-t")
MOMENTUM = 0.5
LATE_MOMENTUM = 0.8  # from MOMENTUM_SWITCH_ITER on
MOMENTUM_SWITCH_ITER = 100


# --- PCA --------------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    """Mean vector, principal directions (rows) and the full eigenvalue spectrum."""

    mean_vector: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray


def pca_fit(data, target_dim: int) -> PcaModel:
    """Eigen-decomposition of the sample covariance, top directions kept.

    Rows of components are unit eigenvectors in descending eigenvalue order;
    each row's largest-magnitude entry is made positive so fits are
    reproducible.
    """
    x = np.asarray(data, dtype=np.float64)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two rows")
    if not 1 <= target_dim <= min(n - 1, d):
        raise ValueError("target_dim must lie in [1, min(n-1, d)]")
    if (x == x[0]).all():
        raise DegenerateData("all rows identical; covariance is zero")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvalues[eigenvalues < 0] = 0.0  # clamp eigh round-off
    components = eigenvectors[:, order].T[:target_dim]

    flip = np.sign(components[np.arange(target_dim), np.abs(components).argmax(axis=1)])
    components = components * flip[:, None]
    return PcaModel(mean_vector=mean, components=components, eigenvalues=eigenvalues)


def pca_transform(model: PcaModel, data) -> np.ndarray:
    """Project rows onto the principal directions after centering."""
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if x.shape[1] != model.mean_vector.size:
        raise DimensionMismatch(
            f"data has {x.shape[1]} columns, model expects {model.mean_vector.size}"
        )
    return (x - model.mean_vector) @ model.components.T


def pca_inverse_transform(model: PcaModel, reduced) -> np.ndarray:
    """Map projected rows back into the original feature space."""
    y = np.atleast_2d(np.asarray(reduced, dtype=np.float64))
    if y.shape[1] != model.components.shape[0]:
        raise DimensionMismatch(
            f"reduced data has {y.shape[1]} columns, model holds {model.components.shape[0]}"
        )
    return y @ model.components + model.mean_vector


# --- neighbor embedding -------------------------------------------------------

@dataclass(frozen=True)
class SneConfig:
    """Optimizer and kernel settings for sne_fit."""

    target_dim: int = 2
    perplexity: Optional[float] = None  # default: min(30, (n-1)/3) at fit time
    max_iter: int = DEFAULT_MAX_ITER
    learning_rate: float = DEFAULT_LEARNING_RATE
    seed: int = 0
    kernel: str = "gaussian"

    def __post_init__(self):
        if self.target_dim < 1:
            raise ValueError("target_dim must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.kernel not in SNE_KERNELS:
            raise ValueError(f"kernel must be one of {SNE_KERNELS}")


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates plus the optimizer's cost trace."""

    coords: np.ndarray
    final_cost: float
    cost_trace: np.ndarray = field(repr=False)


def pairwise_sq_distances(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    sq = (x**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def conditional_gaussian(data, sigmas) -> np.ndarray:
    """Row-stochastic neighbor probabilities with fixed per-row bandwidths."""
    d2 = pairwise_sq_distances(data)
    betas = 1.0 / (2.0 * np.asarray(sigmas, dtype=np.float64) ** 2)
    return _conditional_from_d2(d2, betas)


def _conditional_from_d2(d2: np.ndarray, betas) -> np.ndarray:
    n = d2.shape[0]
    betas = np.broadcast_to(np.asarray(betas, dtype=np.float64), (n,))
    logits = -d2 * betas[:, None]
    np.fill_diagonal(logits, -np.inf)  # self-probability is zero
    logits = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def _row_perplexity(p_row: np.ndarray) -> float:
    nz = p_row[p_row > 0]
    entropy_bits = float(-(nz * np.log2(nz)).sum())
    return 2.0**entropy_bits


def calibrated_conditionals(data, perplexity: float) -> np.ndarray:
    """Conditional matrix whose per-row perplexity matches the target.

    Each row's bandwidth is found by bracketed bisection on the precision
    beta = 1/(2*sigma^2).
    """
    d2 = pairwise_sq_distances(data)
    n = d2.shape[0]
    cond = np.zeros((n, n))
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        row = d2[i, others[i]]

        def row_p(beta):
            logits = -row * beta
            logits -= logits.max()
            w = np.exp(logits)
            return w / w.sum()

        beta, lo, hi = 1.0, 0.0, np.inf
        ok = False
        for _ in range(MAX_BANDWIDTH_STEPS):
            p = row_p(beta)
            diff = _row_perplexity(p) - perplexity
            if abs(diff) <= PERPLEXITY_TOL:
                ok = True
                break
            if diff > 0:  # too flat: tighten
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else (beta + lo) / 2.0
        if not ok:
            raise PerplexityUnreachable(
                f"row {i}: perplexity {perplexity} not reachable in {MAX_BANDWIDTH_STEPS} steps"
            )
        cond[i, others[i]] = row_p(beta)
    return cond


def symmetrize_conditionals(cond: np.ndarray) -> np.ndarray:
    """Joint probabilities p_ij = (p_{i|j} + p_{j|i}) / 2n; sums to one."""
    n = cond.shape[0]
    return (cond + cond.T) / (2.0 * n)


def default_perplexity(n: int) -> float:
    return float(min(30.0, (n - 1) // 3))


def sne_p_matrix(data, perplexity: Optional[float] = None) -> np.ndarray:
    """Symmetrized joint neighbor probabilities of the input rows."""
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least three rows")
    if perplexity is None:
        perplexity = default_perplexity(n)
    if not perplexity < n:
        raise ValueError("perplexity must be smaller than the number of rows")
    return symmetrize_conditionals(calibrated_conditionals(x, perplexity))


def sne_conditional_q(coords) -> np.ndarray:
    """Row-stochastic Gaussian neighbor probabilities of the embedding."""
    d2 = pairwise_sq_distances(coords)
    return _conditional_from_d2(d2, np.ones(d2.shape[0]))


def sne_cost(p_cond: np.ndarray, q_cond: np.ndarray) -> float:
    """Summed per-point KL divergence between neighbor distributions."""
    mask = p_cond > 0
    q = np.maximum(q_cond[mask], 1e-300)  # exp underflow, not a true zero
    return float((p_cond[mask] * (np.log(p_cond[mask]) - np.log(q))).sum())


def sne_gradient(p_cond: np.ndarray, q_cond: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Derivative of sne_cost with respect to each embedded point:
    2 * sum_j (y_i - y_j) * (p_j|i - q_j|i + p_i|j - q_i|j).
    """
    m = (p_cond - q_cond) + (p_cond - q_cond).T
    return 2.0 * (m.sum(axis=1)[:, None] * coords - m @ coords)


def _student_t_q(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    return w / w.sum(), w


def sne_fit(data, config: SneConfig) -> Embedding:
    """Gradient descent with momentum on the embedding cost.

    Deterministic given config.seed. Raises NonFiniteCost if the optimizer
    diverges (learning rate too high for the data).
    """
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least three rows")
    perplexity = config.perplexity if config.perplexity is not None else default_perplexity(n)
    if not perplexity < n:
        raise ValueError("perplexity must be smaller than the number of rows")

    p_cond = calibrated_conditionals(x, perplexity)
    p_joint = symmetrize_conditionals(p_cond)

    rng = np.random.default_rng(config.seed)
    y = rng.normal(0.0, INIT_STD, size=(n, config.target_dim))
    velocity = np.zeros_like(y)
    trace = np.zeros(config.max_iter)

    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for it in range(config.max_iter):
            if config.kernel == "gaussian":
                q_cond = sne_conditional_q(y)
                cost = sne_cost(p_cond, q_cond)
                grad = sne_gradient(p_cond, q_cond, y)
            else:
                d2 = pairwise_sq_distances(y)
                q_joint, w = _student_t_q(d2)
                cost = sne_cost(p_joint, q_joint)
                m = (p_joint - q_joint) * w
                grad = 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)
            if not np.isfinite(cost):
                raise NonFiniteCost(f"cost diverged at iteration {it}")
            trace[it] = cost
            momentum = MOMENTUM if it < MOMENTUM_SWITCH_ITER else LATE_MOMENTUM
            velocity = momentum * velocity - config.learning_rate * grad
            y = y + velocity

    if not np.isfinite(y).all():
        raise NonFiniteCost(f"coordinates diverged after {config.max_iter} iterations")
    return Embedding(coords=y, final_cost=float(trace[-1]), cost_trace=trace)


# --- pipeline glue -------------------------------------------------------------

def reduce_for_pipeline(
    data,
    train_mask,
    method: str,
    target_dim: int = 2,
    sne_config: Optional[SneConfig] = None,
) -> tuple[np.ndarray, dict]:
    """Reduce a combined train+test matrix for the classification stage.

    PCA fits on training rows only and projects everything (inductive); the
    neighbor embedding has no out-of-sample map, so it fits on all rows
    jointly (transductive) and the mask is left to downstream consumers.
    """
    x = np.asarray(data, dtype=np.float64)
    mask = np.asarray(train_mask, dtype=bool)
    if mask.shape != (x.shape[0],):
        raise DimensionMismatch("train_mask length must match the number of rows")
    if method == "pca":
        model = pca_fit(x[mask], target_dim)
        return pca_transform(model, x), {"method": "pca", "transductive": False}
    if method == "sne":
        config = sne_config or SneConfig(target_dim=target_dim)
        embedding = sne_fit(x, config)
        return embedding.coords, {
            "method": "sne",
            "transductive": True,
            "final_cost": embedding.final_cost,
        }
    raise ValueError("method must be 'pca' or 'sne'")
