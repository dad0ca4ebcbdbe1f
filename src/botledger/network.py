"""From-scratch recurrent binary classifier on top of numpy.

Architecture, in forward order:

* input batch normalization applied to each timestep's feature slice, with
  one shared set of gamma/beta/running statistics across timesteps;
* a single LSTM layer; gate pre-activations are computed as one fused
  ``a = x W_x^T + h_prev W_h^T + b`` with the 4H rows blocked in the order
  input, forget, cell, output:

      i = sigmoid(a_i)        f = sigmoid(a_f)
      g = tanh(a_g)           o = sigmoid(a_o)
      c_t = f * c_prev + i * g
      h_t = o * tanh(c_t)

* inverted dropout on the final hidden state during training (kept units
  scaled by 1/(1-p), so inference needs no rescaling);
* a sigmoid readout ``p = sigmoid(h W_out + b_out)``.

The LSTM kernel follows the cuDNN recipe (Appleyard et al. 2016):

* ``sigmoid(z)`` is evaluated as ``0.5 * (1 + tanh(z / 2))``, which is exact
  at both extremes and needs no branch on the sign of ``z``;
* the i/f/o rows of the gate pre-activations are pre-scaled by 1/2 (exact,
  being a power of two), so one ``tanh`` call per step over all 4H columns
  yields every gate, and ``cell_step`` and ``forward`` share that formula;
* the input projection ``x W_x^T + b`` is one GEMM over all T timesteps
  before the time loop, leaving one ``h W_h^T`` GEMM per step;
* training keeps every step's gates, ``c``, ``tanh(c)`` and ``h`` for
  backpropagation; inference keeps only the current step;
* finiteness is checked once per batch: a non-finite cell state stays
  non-finite at every later step, so checking the last one suffices.

Training minimizes mean binary cross-entropy plus an L2 penalty on the
weight matrices (never biases or batch-norm parameters), with exact
backpropagation through time and Adam updates.  Everything here is plain
numpy; no framework is involved, which keeps the gradient checker honest.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, NumericError
from .schema import encode_labels

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
PROB_CLIP = 1e-7

# Names of ModelParams fields updated by the optimizer, in declared order.
TRAINABLE = ("W_x", "W_h", "b", "bn_gamma", "bn_beta", "W_out", "b_out")
# L2 applies to weight matrices only.
L2_FIELDS = ("W_x", "W_h", "W_out")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters that fix the network's shape and regularization."""

    input_dim: int
    hidden_dim: int = 32
    dropout_p: float = 0.2
    l2_lambda: float = 1e-4
    use_batchnorm: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")
        if self.l2_lambda < 0.0:
            raise ValueError("l2_lambda must be non-negative")

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim,
            "dropout_p": self.dropout_p,
            "l2_lambda": self.l2_lambda,
            "use_batchnorm": self.use_batchnorm,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ModelConfig":
        try:
            return ModelConfig(
                input_dim=int(doc["input_dim"]),
                hidden_dim=int(doc["hidden_dim"]),
                dropout_p=float(doc["dropout_p"]),
                l2_lambda=float(doc["l2_lambda"]),
                use_batchnorm=bool(doc["use_batchnorm"]),
                seed=int(doc["seed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed model config document: {exc}") from exc


@dataclass
class ModelParams:
    """All learnable tensors plus batch-norm running statistics.

    Gate blocks in ``W_x``/``W_h``/``b`` are stacked input, forget, cell,
    output along the first axis (4H rows).
    """

    W_x: np.ndarray  # (4H, D)
    W_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    bn_gamma: np.ndarray  # (D,)
    bn_beta: np.ndarray  # (D,)
    bn_running_mean: np.ndarray  # (D,)
    bn_running_var: np.ndarray  # (D,)
    W_out: np.ndarray  # (H,)
    b_out: float

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W_x.shape[1]

    def copy(self) -> "ModelParams":
        return copy.deepcopy(self)


class GateRecord(NamedTuple):
    """Gate activations of one cell step (each (*, H))."""

    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # tanh form: saturates to exactly 0 or 1 at the extremes, no overflow
    arr = np.asarray(z, dtype=float)
    out = 0.5 * (1.0 + np.tanh(0.5 * arr))
    return float(out) if arr.ndim == 0 else out


def _gate_scale(hidden_dim: int) -> np.ndarray:
    """Per-row scale of the 4H pre-activations: 1/2 on i/f/o, 1 on g."""
    scale = np.full(4 * hidden_dim, 0.5)
    scale[2 * hidden_dim : 3 * hidden_dim] = 1.0
    return scale


def _activate_gates(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Map pre-activations already multiplied by ``scale`` to [i, f, g, o].

    Overwrites and returns ``a``: ``scale * tanh(a) + (1 - scale)`` is
    ``sigmoid`` on the halved i/f/o blocks and ``tanh`` on the g block.
    """
    np.tanh(a, out=a)
    a *= scale
    a += 1.0 - scale
    return a


def init_params(cfg: ModelConfig) -> ModelParams:
    """Seeded initialization: uniform(-k, k) weights with k = 1/sqrt(H),
    zero biases except the forget-gate block at 1, identity batch norm."""
    rng = np.random.default_rng(cfg.seed)
    h, d = cfg.hidden_dim, cfg.input_dim
    k = 1.0 / np.sqrt(h)
    W_x = rng.uniform(-k, k, size=(4 * h, d))
    W_h = rng.uniform(-k, k, size=(4 * h, h))
    W_out = rng.uniform(-k, k, size=h)
    b_out = float(rng.uniform(-k, k))
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0  # forget bias starts open so early gradients flow
    return ModelParams(
        W_x=W_x,
        W_h=W_h,
        b=b,
        bn_gamma=np.ones(d),
        bn_beta=np.zeros(d),
        bn_running_mean=np.zeros(d),
        bn_running_var=np.ones(d),
        W_out=W_out,
        b_out=b_out,
    )


def cell_step(
    params: ModelParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, GateRecord]:
    """One LSTM step; accepts single vectors or (B, .) batches."""
    scale = _gate_scale(params.hidden_dim)
    a = (x_t @ params.W_x.T + h_prev @ params.W_h.T + params.b) * scale
    i, f, g, o = np.split(_activate_gates(a, scale), 4, axis=-1)
    c_t = f * c_prev + i * g
    if not np.isfinite(c_t).all():
        raise NumericError("numeric overflow in LSTM cell state")
    h_t = o * np.tanh(c_t)
    return h_t, c_t, GateRecord(i, f, g, o)


def _bn_apply(
    batch: np.ndarray, params: ModelParams, training: bool, momentum: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a (rows, D) matrix; returns (output, pre-affine x_hat).

    Training mode normalizes with biased batch statistics and folds them into
    the running estimates as ``running = (1 - momentum) * running +
    momentum * batch``; inference uses the running estimates unchanged.
    """
    if training:
        if batch.shape[0] < 2:
            raise DataError("batch too small for batchnorm (need at least 2 rows)")
        mean = batch.mean(axis=0)
        var = batch.var(axis=0)
        params.bn_running_mean = (1.0 - momentum) * params.bn_running_mean + momentum * mean
        params.bn_running_var = (1.0 - momentum) * params.bn_running_var + momentum * var
    else:
        mean = params.bn_running_mean
        var = params.bn_running_var
    x_hat = (batch - mean) / np.sqrt(var + BN_EPS)
    return params.bn_gamma * x_hat + params.bn_beta, x_hat


def batchnorm_forward(
    batch: np.ndarray, params: ModelParams, training: bool, momentum: float = BN_MOMENTUM
) -> np.ndarray:
    """Public batch-norm entry point over one (B, D) matrix."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2:
        raise ValueError("batchnorm expects a 2-D (batch, features) matrix")
    out, _ = _bn_apply(batch, params, training, momentum)
    return out


@dataclass
class ForwardTrace:
    """Intermediate activations saved by a training-mode forward pass.

    Time-major buffers: shape (T, B, .) so the backward loop indexes by step.
    """

    x_used: np.ndarray  # (T, B, D) inputs as seen by the cell (post-BN if any)
    x_hat: np.ndarray | None  # (T, B, D) pre-affine normalized inputs
    gates: GateRecord  # each (T, B, H)
    c: np.ndarray  # (T, B, H)
    tanh_c: np.ndarray  # (T, B, H)
    h: np.ndarray  # (T, B, H)
    dropout_mask: np.ndarray | None  # (B, H), already scaled by 1/(1-p)
    h_final: np.ndarray  # (B, H) hidden state fed to the readout
    probs: np.ndarray  # (B,)


def forward(
    params: ModelParams,
    batch: np.ndarray,
    cfg: ModelConfig,
    *,
    training: bool,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace | None]:
    """Run the network over a (B, T, D) batch.

    Returns per-sample bot probabilities (clipped into the open unit
    interval) and, in training mode, the trace ``backward`` consumes.
    Training with dropout_p > 0 requires ``rng`` for the mask draw.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 3:
        raise ValueError("forward expects a (batch, time, features) array")
    n, t_steps, d = batch.shape
    if d != cfg.input_dim or d != params.input_dim:
        raise ValueError(
            f"input width {d} does not match model input_dim {params.input_dim}"
        )
    if t_steps < 1:
        raise ValueError("batch must contain at least one timestep")
    if not np.isfinite(batch).all():
        raise NumericError("non-finite values in input batch")
    hdim = params.hidden_dim

    # One statistic set per feature, shared across timesteps: batch moments
    # pool over (sample, timestep) rows so training and inference see the
    # same normalization geometry.
    if cfg.use_batchnorm:
        normed, xh = _bn_apply(batch.reshape(n * t_steps, d), params, training, BN_MOMENTUM)
        x_used = np.ascontiguousarray(normed.reshape(n, t_steps, d).transpose(1, 0, 2))
        x_hat = np.ascontiguousarray(xh.reshape(n, t_steps, d).transpose(1, 0, 2))
    else:
        x_used = np.ascontiguousarray(batch.transpose(1, 0, 2))
        x_hat = None

    # Input projection for every timestep in one GEMM; each step's slice is
    # then turned into that step's gate activations in place.
    scale = _gate_scale(hdim)
    acts = x_used.reshape(t_steps * n, d) @ (params.W_x * scale[:, None]).T
    acts += params.b * scale
    acts = acts.reshape(t_steps, n, 4 * hdim)
    w_h = (params.W_h * scale[:, None]).T

    # Training keeps every step for backward; inference overwrites one slot.
    kept = t_steps if training else 1
    cs, tanh_cs, hs = (np.empty((kept, n, hdim)) for _ in range(3))
    h = c = np.zeros((n, hdim))
    for t in range(t_steps):
        slot = t if training else 0
        a = acts[t]
        a += h @ w_h
        _activate_gates(a, scale)
        i, f, g, o = (a[:, k * hdim : (k + 1) * hdim] for k in range(4))
        c = np.multiply(f, c, out=cs[slot])
        c += i * g
        tanh_c = np.tanh(c, out=tanh_cs[slot])
        h = np.multiply(o, tanh_c, out=hs[slot])
    if not np.isfinite(c).all():
        raise NumericError("numeric overflow in LSTM cell state")

    if training and cfg.dropout_p > 0.0:
        if rng is None:
            raise ValueError("training forward with dropout needs an rng")
        keep = 1.0 - cfg.dropout_p
        mask = (rng.random((n, hdim)) < keep) / keep
        h_final = h * mask
    else:
        mask = None
        h_final = h

    z = h_final @ params.W_out + params.b_out
    probs = np.clip(sigmoid(z), PROB_CLIP, 1.0 - PROB_CLIP)
    if not np.isfinite(probs).all():
        raise NumericError("numeric overflow in readout")

    if not training:
        return probs, None
    trace = ForwardTrace(
        x_used=x_used,
        x_hat=x_hat,
        gates=GateRecord(*(np.ascontiguousarray(blk) for blk in np.split(acts, 4, axis=2))),
        c=cs,
        tanh_c=tanh_cs,
        h=hs,
        dropout_mask=mask,
        h_final=h_final,
        probs=probs,
    )
    return probs, trace


def bce_loss(
    probabilities: np.ndarray,
    labels: Sequence | np.ndarray,
    params: ModelParams | None = None,
    l2_lambda: float = 0.0,
) -> float:
    """Mean binary cross-entropy, plus the L2 penalty when params are given.

    Probabilities are clipped to [1e-7, 1 - 1e-7] before the logs purely as
    a numeric guard.
    """
    p = np.clip(np.asarray(probabilities, dtype=float), PROB_CLIP, 1.0 - PROB_CLIP)
    y = encode_labels(labels)
    if p.shape != y.shape:
        raise ValueError("probabilities and labels must have the same shape")
    data = float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))
    if l2_lambda and params is not None:
        data += l2_lambda * sum(float(np.sum(getattr(params, f) ** 2)) for f in L2_FIELDS)
    return data


@dataclass
class GradientSet:
    """Gradients (or Adam moments) mirroring every trainable tensor."""

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    W_out: np.ndarray
    b_out: float

    @staticmethod
    def zeros_like(params: ModelParams) -> "GradientSet":
        return GradientSet(
            W_x=np.zeros_like(params.W_x),
            W_h=np.zeros_like(params.W_h),
            b=np.zeros_like(params.b),
            bn_gamma=np.zeros_like(params.bn_gamma),
            bn_beta=np.zeros_like(params.bn_beta),
            W_out=np.zeros_like(params.W_out),
            b_out=0.0,
        )

    def items(self) -> list[tuple[str, np.ndarray | float]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def backward(
    trace: ForwardTrace,
    labels: Sequence | np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
) -> GradientSet:
    """Exact gradients of ``bce_loss`` via backpropagation through time.

    Batch-norm sits on the input side, so its batch statistics do not depend
    on any trainable tensor; only gamma/beta need gradients, accumulated from
    the saved ``x_hat`` buffers.
    """
    y = encode_labels(labels)
    t_steps, n, hdim = trace.h.shape
    if y.shape != (n,):
        raise ValueError("labels must match the traced batch size")

    grads = GradientSet.zeros_like(params)

    # d loss / d z for p = sigmoid(z) under mean BCE
    dz = (trace.probs - y) / n
    grads.W_out = trace.h_final.T @ dz
    grads.b_out = float(dz.sum())

    dh = np.outer(dz, params.W_out)
    if trace.dropout_mask is not None:
        dh = dh * trace.dropout_mask

    dc_next = np.zeros((n, hdim))
    gi, gf, gg, go = trace.gates
    for t in range(t_steps - 1, -1, -1):
        i, f, g, o = gi[t], gf[t], gg[t], go[t]
        tanh_c = trace.tanh_c[t]
        c_prev = trace.c[t - 1] if t > 0 else np.zeros((n, hdim))
        h_prev = trace.h[t - 1] if t > 0 else np.zeros((n, hdim))

        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_next = dc * f

        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        grads.W_x += da.T @ trace.x_used[t]
        grads.W_h += da.T @ h_prev
        grads.b += da.sum(axis=0)
        dh = da @ params.W_h

        if cfg.use_batchnorm:
            dx_bn = da @ params.W_x  # gradient w.r.t. the BN output slice
            grads.bn_gamma += (dx_bn * trace.x_hat[t]).sum(axis=0)
            grads.bn_beta += dx_bn.sum(axis=0)

    if cfg.l2_lambda:
        for name in L2_FIELDS:
            setattr(
                grads, name, getattr(grads, name) + 2.0 * cfg.l2_lambda * getattr(params, name)
            )

    for _, value in grads.items():
        if not np.isfinite(value).all():
            raise NumericError("numeric overflow in gradients")
    return grads


@dataclass
class AdamState:
    """Per-tensor first/second moment accumulators plus the step count."""

    first: GradientSet
    second: GradientSet
    step_count: int
    lr: float
    beta1: float
    beta2: float
    eps_hat: float


def init_adam(
    params: ModelParams,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps_hat: float = 1e-8,
) -> AdamState:
    return AdamState(
        first=GradientSet.zeros_like(params),
        second=GradientSet.zeros_like(params),
        step_count=0,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps_hat=eps_hat,
    )


def adam_step(
    params: ModelParams, grads: GradientSet, state: AdamState
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; inputs are left unmodified.

    Every updated tensor is a fresh array, so the new params share only the
    batch-norm running statistics with the old ones, and those are rebound
    by ``_bn_apply``, never written in place.
    """
    t = state.step_count + 1
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    updated: dict = {}
    first: dict = {}
    second: dict = {}
    for name in TRAINABLE:
        g = getattr(grads, name)
        m = state.beta1 * getattr(state.first, name) + (1.0 - state.beta1) * g
        v = state.beta2 * getattr(state.second, name) + (1.0 - state.beta2) * np.square(g)
        update = state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps_hat)
        updated[name] = getattr(params, name) - update
        first[name], second[name] = m, v
    for tensors in (updated, first, second):
        tensors["b_out"] = float(tensors["b_out"])
    new_state = replace(
        state, first=GradientSet(**first), second=GradientSet(**second), step_count=t
    )
    return replace(params, **updated), new_state


@dataclass(frozen=True)
class GradientCheckReport:
    per_tensor: dict[str, float]
    max_relative_error: float
    entries_checked: int
    tolerance: float
    perturbation: float
    passed: bool


def gradient_check(
    cfg: ModelConfig,
    seed: int,
    perturbation: float = 1e-5,
    tolerance: float = 1e-4,
    *,
    window_length: int = 4,
    batch_size: int = 2,
    max_entries_per_tensor: int = 50,
) -> GradientCheckReport:
    """Compare analytic gradients against central differences.

    Uses a small random batch and random labels.  Dropout must be disabled
    (its mask would change under perturbation); networks are kept small so
    every entry of the small tensors gets checked, with large tensors
    subsampled.  Relative error per entry is
    ``|ga - gn| / max(|ga|, |gn|, 1e-8)``.
    """
    if cfg.dropout_p != 0.0:
        raise ValueError("gradient check requires dropout_p = 0")
    if cfg.hidden_dim > 10:
        raise ValueError("gradient check is meant for small nets (hidden_dim <= 10)")
    rng = np.random.default_rng(seed)
    params = init_params(cfg)
    batch = rng.random((batch_size, window_length, cfg.input_dim))
    labels = rng.integers(0, 2, size=batch_size).astype(float)

    _, trace = forward(params.copy(), batch, cfg, training=True)
    analytic = backward(trace, labels, params, cfg)

    def loss_at(p: ModelParams) -> float:
        probs, _ = forward(p.copy(), batch, cfg, training=True)
        return bce_loss(probs, labels, p, cfg.l2_lambda)

    per_tensor: dict[str, float] = {}
    checked = 0
    for name in TRAINABLE:
        ga = getattr(analytic, name)
        base = getattr(params, name)
        if name == "b_out":
            flat_indices: list[int] = [0]
            size = 1
        else:
            size = base.size
            if size <= max_entries_per_tensor:
                flat_indices = list(range(size))
            else:
                flat_indices = sorted(
                    rng.choice(size, size=max_entries_per_tensor, replace=False).tolist()
                )
        worst = 0.0
        for flat in flat_indices:
            plus = params.copy()
            minus = params.copy()
            if name == "b_out":
                plus.b_out = params.b_out + perturbation
                minus.b_out = params.b_out - perturbation
                ga_entry = float(ga)
            else:
                getattr(plus, name).flat[flat] += perturbation
                getattr(minus, name).flat[flat] -= perturbation
                ga_entry = float(np.asarray(ga).flat[flat])
            gn_entry = (loss_at(plus) - loss_at(minus)) / (2.0 * perturbation)
            rel = abs(ga_entry - gn_entry) / max(abs(ga_entry), abs(gn_entry), 1e-8)
            worst = max(worst, rel)
            checked += 1
        per_tensor[name] = worst

    max_err = max(per_tensor.values())
    return GradientCheckReport(
        per_tensor=per_tensor,
        max_relative_error=max_err,
        entries_checked=checked,
        tolerance=tolerance,
        perturbation=perturbation,
        passed=max_err < tolerance,
    )
