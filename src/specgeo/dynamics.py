"""Gradient-descent dynamics of a linear bottleneck classifier.

The model maps a batch S (orthonormal rows) through theta to features
f = S @ theta, then through W to logits f @ W, trained by full-batch
Euler steps of

    theta <- theta - eta * S^T (A W^T)        W <- W - eta * f^T A

where A is the logit-space error matrix of the configured loss against
the next-token target matrix P (one distribution per row, see
``target_matrix``):

* ``xent_exact``      A = softmax(logits) - P, re-evaluated each step.
* ``xent_linearized`` A = alpha_0 - P, the tangent-plane surrogate of
                      cross-entropy: the softmax slope is frozen at the
                      initialization expansion point alpha_0 (kept on
                      the state as ``alpha0``), so A is constant over
                      the run.
* ``mse``             A = logits - P (loss 0.5 * ||.||_F^2).

Row r of P is the unigram distribution of the batch (``class_counts``)
with the odds of the row's own token multiplied by ``label_odds``; at
``label_odds = inf`` P is the one-hot label matrix.  Every row of A sums
to zero for the two cross-entropy losses, whose rows of alpha and P are
distributions; the ``mse`` rows sum to the row sum of the logits less 1.

Because S S^T = I, the theta step is exactly f <- f - eta * A W^T.
``run_trajectory`` steps (f, W) only, copies them into snapshot arrays at
record points, and computes every observable afterwards from the stacked
snapshots, a block of records at a time; a run from theta_0 ends at
theta_0 + S^T (f - f_0).  ``gd_step`` takes the same step and rebuilds
theta + S^T (f' - f).  ``DivergenceError`` names the first record step
whose parameters or logits are not finite.

With the balanced initialization f^T f = W W^T, the continuous flow keeps
the right singular vectors of f equal to the left singular vectors of W
and their singular values pairwise matched; the per-step records carry
everything needed to verify that alignment, its conservation law (Du, Hu
& Lee 2018: f^T f - W W^T is constant under the flow), and the
proportional-growth law sigma_dot_i = -eta * g_i * sigma_i.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _EXPORTS
from .spectral import _entropy_rank

__all__ = list(_EXPORTS["dynamics"])

LOSS_KINDS = ("xent_exact", "xent_linearized", "mse")

_INIT_SCALE = 1e-2

_GAP_RTOL = 1e-6  # singular values this close are degenerate, see _alignment_error

# Records per block of the observables pass; bounds its working set.
_BLOCK = 4096

# phase_summary: moving-average window as a fraction of the series, and
# the margin by which an interior maximum must beat both of its sides.
_SMOOTH_FRAC = 0.05
_PHASE_TOL = 0.01

# check_growth_law: relative-error denominators are floored at this
# fraction of each index's peak velocity.
_RATE_FLOOR_REL = 1e-2


class DivergenceError(RuntimeError):
    """A run reached non-finite parameters, logits or observables."""


def _diverged(what: str, lr: float) -> DivergenceError:
    return DivergenceError(f"non-finite {what} with lr={lr}; "
                           "reduce the learning rate or the step count")


@dataclass(frozen=True)
class ToyConfig:
    """Dimensions, class skew, targets, and optimization settings for one run.

    The stock configuration reconstructs the skewed bottleneck regime:
    2-dimensional features, 4 classes with counts (4, 2, 1, 1), each row
    trained towards a next-token distribution whose own-token odds are
    ``label_odds`` = 100 times the unigram odds.  The bottleneck is
    active whenever d < vocab.

    ``label_odds`` is a float in [1, inf].  At inf every target is
    one-hot: the batch is then linearly separable, gradient descent
    drifts towards the max-margin direction, and RankMe rises towards
    that limit without the rise-then-fall of the finite-odds regime.
    At 1 every row's target is the unigram distribution.
    """

    d_in: int = 8
    d: int = 2
    vocab: int = 4
    class_counts: tuple[int, ...] = (4, 2, 1, 1)
    lr: float = 1e-2
    steps: int = 50_000
    loss_kind: str = "xent_exact"
    seed: int = 0
    record_every: int = 1
    label_odds: float = 100.0

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if len(self.class_counts) != self.vocab:
            raise ValueError("class_counts must have one entry per class")
        if any(c < 0 for c in self.class_counts):
            raise ValueError("class counts must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch must be nonempty")
        if self.batch_size > self.d_in:
            raise ValueError(
                f"batch size {self.batch_size} > d_in {self.d_in}: "
                "orthonormal input rows do not exist"
            )
        if not self.lr > 0:  # also rejects NaN
            raise ValueError("learning rate must be positive")
        if self.steps < 1 or self.record_every < 1:
            raise ValueError("steps and record_every must be >= 1")
        target_matrix((), self.class_counts, self.label_odds)  # checks label_odds

    @property
    def batch_size(self) -> int:
        return int(sum(self.class_counts))


@dataclass
class ToyModelState:
    """Parameters plus the fixed batch they are trained on."""

    theta: np.ndarray  # d_in x d
    w: np.ndarray  # d x vocab
    inputs: np.ndarray  # b x d_in, orthonormal rows
    labels: np.ndarray  # class id per row
    targets: np.ndarray  # b x vocab next-token distribution per row
    alpha0: np.ndarray  # b x vocab softmax of the initial logits, the
    #   expansion point of the xent_linearized loss
    balance_residual: float  # ||f^T f - W W^T||_F at creation

    def features(self) -> np.ndarray:
        return self.inputs @ self.theta

    def logits(self) -> np.ndarray:
        return self.features() @ self.w


@dataclass
class TrajectoryRecord:
    """Per-step observables of one run (one row per recorded step)."""

    cfg: ToyConfig
    steps: np.ndarray  # recorded step indices
    loss: np.ndarray
    rankme: np.ndarray  # RankMe of the uncentred second moment f^T f / b
    #   (eigenvalues s_i^2 / b; the batch mean is not subtracted)
    sigma_f: np.ndarray  # (T, min(b, d)) singular values of f, descending
    sigma_w: np.ndarray  # (T, min(d, vocab)) singular values of W
    align_err: np.ndarray  # || |V1^T U2| - I ||_F over the shared top block
    align_grouped: np.ndarray  # True where degenerate sigmas forced
    #   the projector-based comparison
    conserve_err: np.ndarray  # ||f^T f - W W^T||_F
    a_norm: np.ndarray  # ||A||_F
    g: np.ndarray  # (T, r) couplings u_1i^T A v_2i
    margins: np.ndarray  # (T, vocab) mean per-class logit margin

    def __len__(self) -> int:
        return int(self.steps.size)


def _orthonormal_rows(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, rows))
    q, r = np.linalg.qr(g)
    # fix QR sign ambiguity so the result is a deterministic function of g
    q = q * np.sign(np.diag(r))
    return q[:, :rows].T


def init_balanced(cfg: ToyConfig) -> ToyModelState:
    """Draw theta with entries of size ``_INIT_SCALE``, then build W from
    the SVD of f = S theta as V1 S1 Q^T (Q random orthogonal), which
    enforces f^T f = W W^T exactly."""
    rng = np.random.default_rng(cfg.seed)
    b = cfg.batch_size
    inputs = _orthonormal_rows(rng, b, cfg.d_in)
    labels = np.repeat(np.arange(cfg.vocab), cfg.class_counts)
    theta = _INIT_SCALE * rng.standard_normal((cfg.d_in, cfg.d))
    f = inputs @ theta
    u1, s1, v1t = np.linalg.svd(f, full_matrices=False)
    r = s1.size
    if r > cfg.vocab:
        raise ValueError(
            f"cannot balance: rank(f)={r} exceeds vocab={cfg.vocab}, "
            "so no W with W W^T = f^T f exists"
        )
    q = _orthonormal_rows(rng, cfg.vocab, cfg.vocab)
    w = v1t.T @ np.diag(s1) @ q[:r]
    residual = float(np.linalg.norm(f.T @ f - w @ w.T))
    return ToyModelState(
        theta=theta,
        w=w,
        inputs=inputs,
        labels=labels,
        targets=target_matrix(labels, cfg.class_counts, cfg.label_odds),
        alpha0=softmax_alpha(f @ w),
        balance_residual=residual,
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with max subtraction."""
    # the ufunc reductions directly: ndarray.max and .sum reach the same
    # reductions through a Python-level wrapper, a cost per call that
    # matters on the step loop's small matrices
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_alpha(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; the logits must be finite."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    return _softmax(logits)


def _onehot(labels: np.ndarray, vocab: int) -> np.ndarray:
    y = np.zeros((labels.size, vocab))
    y[np.arange(labels.size), labels] = 1.0
    return y


def target_matrix(
    labels: np.ndarray, class_counts, label_odds: float
) -> np.ndarray:
    """Next-token targets P, one row per label:

        P_r  proportional to  counts * (1 + (label_odds - 1) * e_{y_r})

    i.e. the unigram distribution of ``class_counts`` with the odds of
    the row's own token multiplied by ``label_odds``.  ``label_odds``
    = inf returns the one-hot label matrix exactly.
    """
    if not label_odds >= 1.0:  # also rejects NaN
        raise ValueError(f"label_odds must be in [1, inf], got {label_odds!r}")
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.asarray(class_counts, dtype=np.float64)
    onehot = _onehot(labels, counts.size)
    if np.isinf(label_odds):
        return onehot
    weights = counts * (1.0 + (label_odds - 1.0) * onehot)
    return weights / weights.sum(axis=1, keepdims=True)


def _error_matrix(
    logits: np.ndarray, targets: np.ndarray, loss_kind: str, alpha0: np.ndarray
) -> np.ndarray:
    """The one definition of A (see module docstring), for one b x vocab
    logit matrix or a stack of them."""
    if loss_kind == "mse":
        return logits - targets
    if loss_kind == "xent_linearized":
        return alpha0 - targets
    return _softmax(logits) - targets


def _loss(
    logits: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    alpha0: Optional[np.ndarray],
) -> np.ndarray:
    """Loss whose logit gradient is ``_error_matrix``, summed over the
    batch: one value per b x vocab logit matrix of a stack.  The tests
    check that gradient by central differences for every loss kind.

    Cross-entropy against P is bounded below by the target entropy
    sum_r H(P_r), which is 0 only for one-hot targets.
    """
    if loss_kind == "mse":
        resid = logits - targets
        return 0.5 * np.sum(resid * resid, axis=(-2, -1))
    target_logit = np.sum(targets * logits, axis=-1)
    if loss_kind == "xent_linearized":
        ent = -np.sum(alpha0 * np.log(alpha0), axis=-1)
        vals = -target_logit + np.sum(alpha0 * logits, axis=-1) + ent
    else:
        zmax = logits.max(axis=-1, keepdims=True)
        lse = zmax[..., 0] + np.log(np.sum(np.exp(logits - zmax), axis=-1))
        vals = lse - target_logit
    return np.sum(vals, axis=-1)


def _step(f, w, targets, loss_kind: str, lr: float, alpha0):
    """The one gradient step, on the features: exact because S S^T = I."""
    # dot, not @: on matrices this small, matmul's dispatch dominates
    lr_a = lr * _error_matrix(f.dot(w), targets, loss_kind, alpha0)
    return f - lr_a.dot(w.T), w - f.T.dot(lr_a)


def gd_step(state: ToyModelState, cfg: ToyConfig) -> ToyModelState:
    """One simultaneous Euler step of the flow, theta rebuilt as
    theta + S^T (f' - f); raises on divergence."""
    f = state.features()
    f_new, w = _step(f, state.w, state.targets, cfg.loss_kind, cfg.lr, state.alpha0)
    theta = state.theta + state.inputs.T @ (f_new - f)
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(w))):
        raise _diverged("parameters after a step", cfg.lr)
    return replace(state, theta=theta, w=w)


def _alignment_error(
    v1t: np.ndarray, u2: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """|| |V1^T U2| - I ||_F over the shared top block, per record of a
    stack v1t (n, k, d), u2 (n, d, k'), s (n, >= r) descending.

    Near-equal singular values leave the individual vectors undetermined
    (any rotation inside the degenerate subspace is valid), so in a
    record with neighbours within ``_GAP_RTOL`` of the largest value the
    tied indices are compared through their block projectors instead.
    Returns (error, grouped), grouped True where that happened.
    """
    r = min(v1t.shape[-2], u2.shape[-1])
    m = np.abs(v1t[:, :r, :] @ u2[:, :, :r]) - np.eye(r)
    err = np.sqrt(np.sum(m * m, axis=(-2, -1)))
    s = s[:, :r]
    tied = s[:, :-1] - s[:, 1:] < _GAP_RTOL * np.maximum(s[:, :1], 1e-300)
    grouped = tied.any(axis=-1)
    for i in np.flatnonzero(grouped):
        total = 0.0
        for block in np.split(np.arange(r), np.flatnonzero(~tied[i]) + 1):
            v_b = v1t[i][block].T  # d x |B| basis from f's right factors
            u_b = u2[i][:, block]
            if len(block) == 1:
                total += (abs(float(v_b[:, 0] @ u_b[:, 0])) - 1.0) ** 2
            else:
                diff = v_b @ v_b.T - u_b @ u_b.T
                total += float(np.sum(diff * diff))
        err[i] = np.sqrt(total)
    return err, grouped


def _observables(f, w, state: ToyModelState, loss_kind: str) -> dict:
    """Every per-record column of ``TrajectoryRecord`` for a stack of
    snapshots f (n, b, d) and W (n, d, vocab)."""
    logits = f @ w
    a = _error_matrix(logits, state.targets, loss_kind, state.alpha0)
    a = np.broadcast_to(a, logits.shape)  # the linearized A is one matrix
    u1, s1, v1t = np.linalg.svd(f, full_matrices=False)
    u2, s2, v2t = np.linalg.svd(w, full_matrices=False)
    r = min(s1.shape[-1], s2.shape[-1])
    # g_i = u1_i^T A v2_i, W's pair signed so that u2_i . v1_i >= 0 as the
    # balanced flow keeps it: g is then independent of the SVD's signs
    lock = np.where(np.einsum("nid,ndi->ni", v1t[:, :r], u2[..., :r]) < 0, -1.0, 1.0)
    g = lock * np.einsum("nbi,nbv,niv->ni", u1[..., :r], a, v2t[:, :r])

    align_err, grouped = _alignment_error(v1t, u2, (s1[:, :r] + s2[:, :r]) / 2)

    # per class, the mean over its rows of own logit - best other logit
    onehot = _onehot(state.labels, logits.shape[-1])
    own = logits[:, np.arange(state.labels.size), state.labels]
    sums = (own - np.where(onehot > 0, -np.inf, logits).max(axis=-1)) @ onehot
    counts = onehot.sum(axis=0)
    margins = np.divide(sums, counts, out=np.full_like(sums, np.nan), where=counts > 0)

    return {
        "loss": _loss(logits, state.targets, loss_kind, state.alpha0),
        # RankMe is scale-free: that of f^T f equals that of f^T f / b
        "rankme": _entropy_rank(s1 * s1),
        "sigma_f": s1,
        "sigma_w": s2,
        "align_err": align_err,
        "align_grouped": grouped,
        "conserve_err": np.linalg.norm(
            f.transpose(0, 2, 1) @ f - w @ w.transpose(0, 2, 1), axis=(-2, -1)
        ),
        "a_norm": np.linalg.norm(a, axis=(-2, -1)),
        "g": g,
        "margins": margins,
    }


def _record_count(cfg: ToyConfig) -> int:
    """The length of ``run_trajectory``'s record steps, from ``cfg`` alone."""
    return -(-cfg.steps // cfg.record_every) + 1  # 0, record_every, ... < steps; steps


def _check_records(n: int) -> None:
    if n < 3:
        raise ValueError(f"need at least 3 records to analyze a trajectory, got {n}")


def run_trajectory(cfg: ToyConfig) -> TrajectoryRecord:
    """Run the configured number of steps and record spectral observables.

    Records every ``record_every`` steps and at the last step.
    Deterministic given the config (the seed fixes the initialization and
    the rest of the run has no randomness).  ``DivergenceError`` names
    the first record step with a non-finite parameter, logit or observable.
    """
    state = init_balanced(cfg)
    steps = np.append(np.arange(0, cfg.steps, cfg.record_every), cfg.steps)
    f, w = state.features(), state.w
    fs, ws = np.empty((steps.size,) + f.shape), np.empty((steps.size,) + w.shape)
    args = (state.targets, cfg.loss_kind, cfg.lr, state.alpha0)
    done = 0
    # a diverging run overflows to inf and NaN (in its parameters, or only in
    # an observable of finite ones); the record checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(steps.tolist()):
            for _ in range(t - done):
                f, w = _step(f, w, *args)
            done = t
            # non-finite parameters make the logits non-finite too
            if not np.isfinite(f.dot(w)).all():
                raise _diverged(f"parameters or logits at record step {t}", cfg.lr)
            fs[k], ws[k] = f, w
        blocks = [
            _observables(fs[i:i + _BLOCK], ws[i:i + _BLOCK], state, cfg.loss_kind)
            for i in range(0, steps.size, _BLOCK)
        ]
    cols = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    # the margins are NaN for a class without rows; every other column is finite
    finite = np.all([np.isfinite(col).reshape(steps.size, -1).all(axis=1)
                     for name, col in cols.items() if name != "margins"], axis=0)
    if not finite.all():
        raise _diverged(f"observables at record step {steps[np.argmin(finite)]}", cfg.lr)
    return TrajectoryRecord(cfg=cfg, steps=steps, **cols)


def smooth_series(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; window forced odd and >= 1."""
    window = max(1, int(window))
    if window % 2 == 0:
        window += 1
    if window == 1 or x.size < window:
        return x.astype(np.float64, copy=True)
    kernel = np.ones(window) / window
    return np.convolve(x, kernel, mode="valid")


@dataclass(frozen=True)
class PhaseSummary:
    """Shape analysis of one RankMe trajectory."""

    warmup_end: int  # index into the smoothed series
    peak_index: int
    peak_value: float
    final_value: float
    compression_depth: float  # peak - final
    entropy_rise: float  # peak - post-warmup minimum before the peak
    has_interior_maximum: bool
    post_warmup_drawdown: float  # max drop below the running max after warmup
    smooth_window: int


def phase_summary(rank_series: np.ndarray) -> PhaseSummary:
    """Locate the warmup end and any interior maximum of a RankMe series.

    The series is smoothed with a centered moving average (window =
    ``_SMOOTH_FRAC`` = 5% of its length, made odd).  Warmup ends at the
    first local minimum of the smoothed series (index 0 if it starts
    rising; its minimum if it never rises).  An interior maximum requires
    the post-warmup peak to sit strictly before the final 2% of the
    smoothed series and to exceed both the preceding minimum and the
    final value by more than ``_PHASE_TOL`` = 0.01.
    """
    x = np.asarray(rank_series, dtype=np.float64)
    _check_records(x.size)
    window = max(1, int(round(_SMOOTH_FRAC * x.size))) | 1  # odd: centred
    s = smooth_series(x, window)

    rises = np.flatnonzero(s[1:] > s[:-1])
    warmup_end = int(rises[0]) if rises.size else int(np.argmin(s))

    post = s[warmup_end:]
    peak_rel = int(np.argmax(post))
    peak_index = warmup_end + peak_rel
    peak_value = float(post[peak_rel])
    final_value = float(post[-1])
    pre_min = float(post[: peak_rel + 1].min())
    compression_depth = peak_value - final_value
    entropy_rise = peak_value - pre_min
    interior = (
        peak_rel > 0
        and peak_index < s.size - max(1, int(0.02 * s.size))
        and compression_depth > _PHASE_TOL
        and entropy_rise > _PHASE_TOL
    )
    running_max = np.maximum.accumulate(post)
    drawdown = float(np.max(running_max - post))
    return PhaseSummary(
        warmup_end=warmup_end,
        peak_index=peak_index,
        peak_value=peak_value,
        final_value=final_value,
        compression_depth=compression_depth,
        entropy_rise=entropy_rise,
        has_interior_maximum=bool(interior),
        post_warmup_drawdown=drawdown,
        smooth_window=window,
    )


def check_conservation(traj: TrajectoryRecord) -> dict:
    """Alignment and conservation diagnostics of a balanced-init run.

    Reports the maxima over recorded steps of the conservation residual
    ||f^T f - W W^T||_F and the alignment error || |V1^T U2| - I ||_F,
    plus the residual at step 0.  Conservation drift of the discrete
    Euler scheme scales as O(eta^2) per step; so does the alignment
    error (divided by the relevant eigenvalue gaps), which is why both
    maxima shrink linearly with eta at a fixed physical horizon.
    """
    return {
        "residual_step0": float(traj.conserve_err[0]),
        "max_conservation_drift": float(traj.conserve_err.max()),
        "final_conservation_drift": float(traj.conserve_err[-1]),
        "max_alignment_error": float(traj.align_err.max()),
        "alignment_error_step0": float(traj.align_err[0]),
        "degenerate_steps": int(np.count_nonzero(traj.align_grouped)),
        "steps": int(traj.cfg.steps),
        "lr": float(traj.cfg.lr),
    }


def check_growth_law(traj: TrajectoryRecord, sigma_floor_rel: float = 1e-6) -> dict:
    """Compare finite-difference singular-value velocities against the
    proportional-growth law sigma_dot_i = -eta * g_i * sigma_i.

    Uses central differences over recorded steps.  Indices with sigma
    below ``sigma_floor_rel`` times the trajectory maximum are skipped.
    Velocities pass through zero, where a pointwise ratio is meaningless
    (the law's absolute deviation, set by the finite-step alignment
    drift, does not vanish with the velocity), so the relative-error
    denominator is floored at ``_RATE_FLOOR_REL`` times that index's peak
    velocity: the reported error reads "relative wherever the rate is
    resolvable, absolute against 1% of peak below that".

    Returns max / 95th-percentile errors for the f-side law, the W-side
    law, and the rate identity |sigma_dot| / sigma = eta * |g|.  The p95
    entries of the floored errors move by about 1e-7 relative under
    round-off alone (e.g. a reordered matrix product in the step), so
    compare them across versions to that tolerance.
    """
    _check_records(len(traj))
    if traj.cfg.record_every != 1:
        raise ValueError("growth-law check needs per-step records")
    eta = traj.cfg.lr
    s_f, s_w, g = traj.sigma_f, traj.sigma_w, traj.g
    r = g.shape[1]
    sig_max = max(float(s_f.max()), float(s_w.max()))

    fd_f = (s_f[2:, :r] - s_f[:-2, :r]) / 2.0
    fd_w = (s_w[2:, :r] - s_w[:-2, :r]) / 2.0
    mid = slice(1, len(traj) - 1)
    pred_f = -eta * g[mid] * s_w[mid, :r]  # sigma_dot_1i = -eta g_i sigma_2i
    pred_w = -eta * g[mid] * s_f[mid, :r]  # sigma_dot_2i = -eta g_i sigma_1i
    keep = s_f[mid, :r] >= sigma_floor_rel * sig_max

    def _rel(fd, pred, mask):
        scale = np.abs(fd).max(axis=0, keepdims=True)  # per-index peak rate
        denom = np.maximum(
            np.maximum(np.abs(fd), np.abs(pred)), _RATE_FLOOR_REL * scale
        )
        err = np.where(denom > 0, np.abs(fd - pred) / denom, 0.0)
        return err[mask]

    err_f = _rel(fd_f, pred_f, keep)
    err_w = _rel(fd_w, pred_w, keep)

    # |sigma_dot_i| / sigma_i = eta |g_i| needs sigma_dot = -eta g sigma_2
    # (checked above through finite differences) plus sigma_2 = sigma_1;
    # testing the collapse through the formula velocity isolates the
    # balance factor and stays well-defined where g passes through zero.
    ratio = s_w[mid, :r] / np.where(s_f[mid, :r] > 0, s_f[mid, :r], 1.0)
    err_rate = np.abs(ratio - 1.0)[keep]

    rate_fd = np.abs(fd_f) / np.where(s_f[mid, :r] > 0, s_f[mid, :r], 1.0)
    rate_pred = eta * np.abs(g[mid]) * ratio
    err_rate_fd = _rel(rate_fd, rate_pred, keep)

    def _stats(arr):
        if arr.size == 0:
            return {"max": 0.0, "p95": 0.0, "count": 0}
        return {
            "max": float(arr.max()),
            "p95": float(np.percentile(arr, 95)),
            "count": int(arr.size),
        }

    return {
        "f_side": _stats(err_f),
        "w_side": _stats(err_w),
        "rate_identity": _stats(err_rate),
        "rate_identity_fd": _stats(err_rate_fd),
        "g_abs_max_step0": float(np.abs(traj.g[0]).max()),
        "skipped_small_sigma": int(np.count_nonzero(~keep)),
    }


def primacy_selection_probe(
    traj: TrajectoryRecord, margin_threshold: float = 0.0
) -> dict:
    """Per-class margin crossing times plus the selection-bias correlation.

    Crossing time is the first recorded step at which a class's mean
    logit margin exceeds ``margin_threshold`` (None if never).  The
    selection correlation is the Pearson correlation across directions
    between sigma_i and its per-step increment delta sigma_i, averaged over
    the steps of the compression window, from the record the smoothed
    RankMe peak is centred on to the end, or of the final quarter when
    no interior peak exists; steps where either side is constant are
    skipped.  At d = 2 each step's correlation is +-1, so the
    value is the mean sign of (sigma_1 - sigma_2)(delta sigma_1 - delta
    sigma_2).
    """
    vocab = traj.cfg.vocab
    crossings = {}
    for c in range(vocab):
        series = traj.margins[:, c]
        hit = np.nonzero(series > margin_threshold)[0]
        crossings[c] = int(traj.steps[hit[0]]) if hit.size else None

    summary = phase_summary(traj.rankme)
    if summary.has_interior_maximum:
        # compression window; smoothed entry i is centred on record i + window // 2
        start = summary.peak_index + summary.smooth_window // 2
    else:
        start = 3 * len(traj) // 4  # late phase
    sig = traj.sigma_f[min(start, len(traj) - 2):]
    # per-step correlation ACROSS directions between sigma_i and its
    # increment, averaged over the window: positive means growth lands
    # preferentially on already-dominant directions
    x, y = sig[:-1], np.diff(sig, axis=0)
    spread = (np.std(x, axis=1) > 0) & (np.std(y, axis=1) > 0)
    x = x[spread] - x[spread].mean(axis=1, keepdims=True)
    y = y[spread] - y[spread].mean(axis=1, keepdims=True)
    r = np.sum(x * y, axis=1) / np.sqrt(np.sum(x * x, axis=1) * np.sum(y * y, axis=1))
    corr = float(np.mean(np.clip(r, -1.0, 1.0))) if r.size else float("nan")

    # classes with equal counts are unordered; compare only across strict
    # frequency drops
    counts = np.asarray(traj.cfg.class_counts)
    order = np.argsort(-counts, kind="stable")
    frequent_first = True
    for a, b in zip(order[:-1], order[1:]):
        if counts[a] == counts[b]:
            continue
        ta, tb = crossings[int(a)], crossings[int(b)]
        if ta is None or (tb is not None and ta > tb):
            frequent_first = False
            break

    late = traj.sigma_f[3 * len(traj) // 4 :]
    growth = late[-1] - late[0] if late.shape[0] >= 2 else np.zeros(traj.sigma_f.shape[1])
    return {
        "margin_crossing_step": crossings,
        "frequent_classes_cross_first": bool(frequent_first),
        "selection_correlation": corr,
        "late_sigma_growth": [float(v) for v in growth],
        "crossing_spread": _crossing_spread(crossings),
    }


def _crossing_spread(crossings: dict) -> Optional[float]:
    vals = [v for v in crossings.values() if v is not None]
    if len(vals) < 2:
        return None
    return float(max(vals) - min(vals))
