"""Dimensionality reduction: PCA and stochastic neighbor embedding.

The embedding uses a Gaussian kernel in both spaces by default (conditional
neighbor probabilities, summed per-point KL cost); a Student-t low-dimensional
kernel is available for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DataTooSmall,
    DegenerateData,
    DimensionMismatch,
    NonFiniteCost,
    PerplexityUnreachable,
    check_fields_like_defaults,
    check_unread_at_defaults,
)

PERPLEXITY_TOL = 1e-4
MAX_BANDWIDTH_STEPS = 100
# rows per calibration, P + P^T and Student-t block: 64-256 measured alike; 512 held a second n x n at n = 1260
SNE_BLOCK_ROWS = 128

# the Gaussian kernel's rate: 0.2 holds across dataset sizes; larger rates diverge
# once the late momentum phase kicks in (verified empirically from n=10 up to n~1300)
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
        raise DataTooSmall("need at least two rows")
    if not 1 <= target_dim <= min(n - 1, d):
        raise DataTooSmall("target_dim must lie in [1, min(n-1, d)]")
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
    perplexity: Optional[float] = None  # default: min(30, (n-1)//3), at least 1, at fit time
    max_iter: int = DEFAULT_MAX_ITER
    learning_rate: Optional[float] = None  # default: DEFAULT_LEARNING_RATE, or for student-t n/12 at fit time
    seed: int = 0
    kernel: str = "gaussian"

    def __post_init__(self):
        if self.learning_rate is None and self.kernel == "gaussian":
            object.__setattr__(self, "learning_rate", DEFAULT_LEARNING_RATE)
        if self.target_dim < 1:
            raise ValueError("target_dim must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.perplexity is not None and not self.perplexity >= 1:  # 2^H >= 1 for any row
            raise ValueError(f"perplexity must be >= 1, got {self.perplexity}")
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.learning_rate == math.inf:
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.kernel not in SNE_KERNELS:
            raise ValueError(f"kernel must be one of {SNE_KERNELS}")


REDUCER_NAMES = ("sne", "pca")
# the ReducerSpec fields each method never reads; they must keep their defaults
REDUCER_UNREAD_KNOBS = {"sne": (), "pca": ("perplexity", "max_iter", "learning_rate", "kernel")}


def is_transductive(method: str) -> bool:
    """True for the neighbor embedding: it has no out-of-sample map, so it fits on every row, test rows included."""
    return method == "sne"


@dataclass(frozen=True)
class ReducerSpec:
    """Reduction method plus its knobs, defaulting to SneConfig's.

    A knob that the method never reads (REDUCER_UNREAD_KNOBS) must keep its default.
    An unset learning_rate becomes SneConfig's: DEFAULT_LEARNING_RATE unless the
    kernel is student-t, whose rate is set from n at fit time.
    """

    method: str
    target_dim: int = SneConfig.target_dim
    perplexity: Optional[float] = SneConfig.perplexity
    max_iter: int = SneConfig.max_iter
    learning_rate: Optional[float] = SneConfig.learning_rate
    kernel: str = SneConfig.kernel

    def __post_init__(self):
        if self.method not in REDUCER_NAMES:
            raise ValueError(f"method must be one of {REDUCER_NAMES}")
        check_fields_like_defaults(self, prefix=f"reducer {self.method!r} ")
        try:
            config = self.sne_config(seed=0)  # the range checks of SneConfig
        except ValueError as exc:
            raise ValueError(f"reducer {self.method!r}: {exc}") from None
        if config.learning_rate == SneConfig(kernel=self.kernel).learning_rate:  # a rate equal to the kernel's default counts as unset
            object.__setattr__(self, "learning_rate", None)
        check_unread_at_defaults(self, REDUCER_UNREAD_KNOBS[self.method], f"reducer {self.method!r}")
        object.__setattr__(self, "learning_rate", config.learning_rate)  # the report's grid block prints it

    def sne_config(self, seed: int) -> SneConfig:
        """The config that reduce_for_pipeline takes for this spec."""
        return SneConfig(
            target_dim=self.target_dim,
            perplexity=self.perplexity,
            max_iter=self.max_iter,
            learning_rate=self.learning_rate,
            kernel=self.kernel,
            seed=seed,
        )


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates plus the optimizer's learning rate and cost per iteration, the last being the final cost."""

    coords: np.ndarray
    cost_trace: np.ndarray = field(repr=False)
    learning_rate: float


def pairwise_sq_distances(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    sq = (x**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :]
    cross = x @ x.T
    cross *= 2.0
    d2 -= cross
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


def calibrated_conditionals(data, perplexity: float) -> np.ndarray:
    """Conditional matrix whose per-row perplexity matches the target.

    Each row's bandwidth is found by bracketed bisection on the precision
    beta = 1/(2*sigma^2), SNE_BLOCK_ROWS rows at once; a row leaves the search
    when it is within PERPLEXITY_TOL. The result starts as the Gram matrix
    x x^T, one product as in pairwise_sq_distances, and each block of rows
    is replaced by its probabilities once found, so calibration holds one
    n x n array. A block's off-diagonal distances are held as rows of n-1, so each
    row's reductions group its values as a lone row would.
    """
    x = np.asarray(data, dtype=np.float64)
    n = len(x)
    sq = (x**2).sum(axis=1)
    cond = np.matmul(x, x.T)
    for start in range(0, n, SNE_BLOCK_ROWS):
        block = cond[start : start + SNE_BLOCK_ROWS]
        b = len(block)
        others = np.arange(n) != np.arange(start, start + b)[:, None]
        block *= 2.0
        # each row's distances to the other points, replaced by its probabilities once found
        rows = np.subtract(sq[start : start + b, None] + sq, block)[others].reshape(b, n - 1)
        np.maximum(rows, 0.0, out=rows)
        beta, lo, hi = np.ones(b), np.zeros(b), np.full(b, np.inf)
        active = np.arange(b)
        for _ in range(MAX_BANDWIDTH_STEPS):
            logits = rows[active] * -beta[active, None]
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits, out=logits)
            p /= p.sum(axis=1, keepdims=True)
            p_log_p = np.log2(p, out=np.zeros_like(p), where=p > 0)
            p_log_p *= p
            diff = 2.0 ** -p_log_p.sum(axis=1) - perplexity
            done = np.abs(diff) <= PERPLEXITY_TOL
            rows[active[done]] = p[done]
            flat = diff > 0  # too flat: tighten
            lo[active] = np.where(flat, beta[active], lo[active])
            hi[active] = np.where(flat, hi[active], beta[active])
            l, h = lo[active], hi[active]  # double or halve while the bracket is open, else bisect
            beta[active] = np.where(h == np.inf, l * 2.0, np.where(l == 0.0, h / 2.0, (l + h) / 2.0))
            active = active[~done]
            if active.size == 0:
                break
        else:
            raise PerplexityUnreachable(
                f"row {start + active[0]}: perplexity {perplexity} not reachable in {MAX_BANDWIDTH_STEPS} steps"
            )
        block[others] = rows.ravel()
        block[~others] = 0.0
    return cond


def default_perplexity(n: int) -> float:
    """min(30, (n-1)//3), floored at 1: no row distribution has a perplexity below 1."""
    return float(max(1, min(30, (n - 1) // 3)))


def default_learning_rate(n: int) -> float:
    """The Student-t kernel's rate for n rows: n / 12 (Belkina et al. 2019).

    Its joint P spreads one unit of probability over n^2 pairs, so each point's
    gradient is of order 1/n, and a fixed rate moves large embeddings too little.
    """
    return n / 12.0


def _checked_rows(data, perplexity: Optional[float]) -> tuple[np.ndarray, float]:
    """The rows as float64 and the perplexity to fit them at (default_perplexity if None)."""
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise DataTooSmall("need at least three rows")
    if perplexity is None:
        perplexity = default_perplexity(n)
    if not perplexity < n:
        raise PerplexityUnreachable("perplexity must be smaller than the number of rows")
    return x, perplexity


def sne_p_matrix(data, perplexity: Optional[float] = None) -> np.ndarray:
    """Joint neighbor probabilities of the input rows, p_ij = (p_{i|j} + p_{j|i}) / 2n; sums to one."""
    cond = calibrated_conditionals(*_checked_rows(data, perplexity))
    return (cond + cond.T) / (2.0 * len(cond))


def sne_conditional_q(coords) -> np.ndarray:
    """Row-stochastic Gaussian neighbor probabilities of the embedding: the row softmax of -d2."""
    q = -pairwise_sq_distances(coords)
    np.fill_diagonal(q, -np.inf)  # self-probability is zero
    q = np.exp(q - q.max(axis=1, keepdims=True))
    return q / q.sum(axis=1, keepdims=True)


def sne_cost(p_cond: np.ndarray, q_cond: np.ndarray) -> float:
    """Summed per-point KL divergence between neighbor distributions."""
    support = p_cond > 0
    p_support = p_cond[support]
    q_support = np.maximum(q_cond[support], 1e-300)  # exp underflow, not a true zero
    return float(((np.log(p_support) - np.log(q_support)) * p_support).sum())


def sne_gradient(p_cond: np.ndarray, q_cond: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Derivative of sne_cost with respect to each embedded point:
    2 * sum_j (y_i - y_j) * (p_j|i - q_j|i + p_i|j - q_i|j).
    """
    pq = p_cond - q_cond
    m = pq + pq.T
    return 2.0 * (m.sum(axis=1)[:, None] * coords - m @ coords)


def _student_t_q(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The joint Student-t q and the kernel w = 1/(1 + d2) of the squared distances d2."""
    w = 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    return w / w.sum(), w


def _neg_entropy(p: np.ndarray) -> float:
    """sum p log p over the positive entries of p, SNE_BLOCK_ROWS rows at a time."""
    total = 0.0
    for start in range(0, len(p), SNE_BLOCK_ROWS):
        block = p[start : start + SNE_BLOCK_ROWS]
        positive = block[block > 0]
        total += float(np.dot(positive, np.log(positive)))
    return total


def _symmetrize(p: np.ndarray) -> np.ndarray:
    """p with P + P^T written over it, SNE_BLOCK_ROWS rows at a time, so no second n x n array is made."""
    for start in range(0, len(p), SNE_BLOCK_ROWS):
        stop = start + SNE_BLOCK_ROWS
        # rows and columns from start on are still P's own
        strip = p[start:stop, start:] + p[start:, start:stop].T
        p[start:stop, start:] = strip
        p[start:, start:stop] = strip.T
    return p


def _gaussian_terms(p: np.ndarray) -> tuple:
    """What _gaussian_step reads of the conditional P, which is overwritten with P + P^T.

    Returns P + P^T, the row and column sums of P and of P + P^T, and sum p log p.
    """
    neg_entropy = _neg_entropy(p)
    p_rows, p_cols = p.sum(axis=1), p.sum(axis=0)
    p_sym = _symmetrize(p)
    return p_sym, p_rows, p_cols, p_sym.sum(axis=1), neg_entropy


def _student_t_step(y: np.ndarray, s: np.ndarray, s_log_s: float) -> tuple[float, np.ndarray]:
    """sne_cost and the gradient of the Student-t embedding y against the joint P = S / 2n, without forming q.

    With S = P + P^T, s_log_s = sum S log S, w = 1/(1 + d2) and Z = sum w, KL = (s_log_s +
    sum S log(1 + d2)) / 2n + log(Z / 2n), and 4 sum_j (p_ij - w_ij / Z) w_ij (y_i - y_j) is the
    gradient. Both come from S w and w^2, summed SNE_BLOCK_ROWS rows at a time.
    """
    n = len(y)
    sq = (y**2).sum(axis=1)
    y1 = np.hstack([y, np.ones((n, 1))])
    sw_y, w2_y = np.empty_like(y1), np.empty_like(y1)  # with the row sums in the last column
    s_log_d, z = 0.0, 0.0
    for start in range(0, n, SNE_BLOCK_ROWS):
        rows = slice(start, start + SNE_BLOCK_ROWS)
        d2 = np.maximum(sq[rows, None] + sq - 2.0 * (y[rows] @ y.T), 0.0)
        s_log_d += np.vdot(s[rows], np.log1p(d2))
        w = np.divide(1.0, np.add(d2, 1.0, out=d2), out=d2)
        w[np.arange(len(w)), np.arange(start, start + len(w))] = 0.0  # no self-pair
        z += w.sum()
        sw_y[rows] = (s[rows] * w) @ y1
        w2_y[rows] = np.square(w, out=w) @ y1
    m_y = sw_y / (2 * n) - w2_y / z
    return (s_log_s + s_log_d) / (2 * n) + math.log(z / (2 * n)), 4.0 * (m_y[:, -1:] * y - m_y[:, :-1])


def _gaussian_step(y: np.ndarray, terms: tuple, e: np.ndarray) -> tuple[float, np.ndarray]:
    """sne_cost and sne_gradient of the Gaussian embedding y, without forming q.

    terms comes from _gaussian_terms; e is an n x n buffer. With the logits
    L_ij = 2 y_i.y_j - |y_j|^2 = |y_i|^2 - d2_ij, their row maxima M_i,
    E = exp(L - M) and its row sums s_i, q_ij = E_ij / s_i. The |y_i|^2 row
    offsets cancel in KL = sum p log p - <P, L> + sum_i rowsum(P)_i (M_i + log s_i).
    The gradient is 2 (rowsum(m) y - m y) with m = P + P^T - Q - Q^T, read from
    the products of E, E^T and P + P^T with y.
    """
    p_sym, p_rows, p_cols, p_sym_rows, neg_entropy = terms
    ones = np.ones((len(y), 1))
    sq = (y**2).sum(axis=1)
    np.matmul(np.hstack([2.0 * y, -ones]), np.hstack([y, sq[:, None]]).T, out=e)  # L
    np.fill_diagonal(e, -np.inf)  # self-probability is zero
    row_max = e.max(axis=1)
    np.subtract(e, row_max[:, None], out=e)
    np.exp(e, out=e)
    y1 = np.hstack([y, ones])
    e_y = e @ y1  # E y and the row sums s
    row_sum = e_y[:, -1]
    r = 1.0 / row_sum
    qt_y = e.T @ (r[:, None] * y1)  # Q^T y and the column sums of Q
    p_sym_y = p_sym @ y
    p_dot_logits = np.vdot(y, p_sym_y) - np.dot(p_cols, sq)
    cost = neg_entropy - p_dot_logits + np.dot(p_rows, row_max + np.log(row_sum))
    m_rows = p_sym_rows - row_sum * r - qt_y[:, -1]
    m_y = p_sym_y - r[:, None] * e_y[:, :-1] - qt_y[:, :-1]
    return float(cost), 2.0 * (m_rows[:, None] * y - m_y)


def sne_fit(data, config: SneConfig) -> Embedding:
    """Gradient descent with momentum on the embedding cost.

    The Gaussian kernel fits the conditional P, the Student-t kernel the joint
    (P + P^T) / 2n, at default_learning_rate(n) unless a rate is set.
    Deterministic given config.seed. Raises NonFiniteCost if the optimizer
    diverges (learning rate too high for the data).

    Neither kernel forms q. A Gaussian iteration holds two n x n arrays, P + P^T
    (written over P) and a buffer of exponentials; a Student-t iteration holds
    one, P + P^T, and SNE_BLOCK_ROWS rows of its kernel.
    """
    x, perplexity = _checked_rows(data, config.perplexity)
    n = x.shape[0]
    p = calibrated_conditionals(x, perplexity)
    if config.kernel == "gaussian":
        step, args = _gaussian_step, (_gaussian_terms(p), np.empty((n, n)))
    else:
        s = _symmetrize(p)
        step, args = _student_t_step, (s, _neg_entropy(s))
    rate = default_learning_rate(n) if config.learning_rate is None else config.learning_rate

    rng = np.random.default_rng(config.seed)
    y = rng.normal(0.0, INIT_STD, size=(n, config.target_dim))
    velocity = np.zeros_like(y)
    trace = np.zeros(config.max_iter)

    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for it in range(config.max_iter):
            cost, grad = step(y, *args)
            if not np.isfinite(cost):
                raise NonFiniteCost(f"cost diverged at iteration {it}")
            trace[it] = cost
            momentum = MOMENTUM if it < MOMENTUM_SWITCH_ITER else LATE_MOMENTUM
            velocity = momentum * velocity - rate * grad
            y = y + velocity

    if not np.isfinite(y).all():
        raise NonFiniteCost(f"coordinates diverged after {config.max_iter} iterations")
    return Embedding(coords=y, cost_trace=trace, learning_rate=rate)


# --- pipeline glue -------------------------------------------------------------

def reduce_for_pipeline(data, train_mask, method: str, config: SneConfig = SneConfig()) -> tuple[np.ndarray, PcaModel | Embedding]:
    """Reduce a combined train+test matrix to config.target_dim columns for the classification stage; returns them and the fit.

    PCA fits on training rows only and projects everything (inductive); it
    reads no other field of config, and the fit is its PcaModel. The neighbor
    embedding fits on all rows jointly (is_transductive), the mask is left to
    downstream consumers, and the fit is the Embedding whose coords are returned.
    """
    if method not in REDUCER_NAMES:
        raise ValueError(f"method must be one of {REDUCER_NAMES}")
    x = np.asarray(data, dtype=np.float64)
    mask = np.asarray(train_mask, dtype=bool)
    if mask.shape != (x.shape[0],):
        raise DimensionMismatch("train_mask length must match the number of rows")
    if method == "pca":
        model = pca_fit(x[mask], config.target_dim)
        return pca_transform(model, x), model
    embedding = sne_fit(x, config)
    return embedding.coords, embedding
