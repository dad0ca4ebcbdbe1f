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

All tensors live in one float64 vector, ``ModelParams.flat``, laid out once
by ``_TENSORS``; gradients and Adam moments share that layout, and
``model_io`` writes the vector as the ``model.bin`` payload.

Training runs in mixed precision (Micikevicius et al. 2018): ``forward``
computes in the dtype of its batch, float32 for a float32 batch and float64
for anything else, and ``harness.train`` hands it float32 minibatches
(``TRAIN_DTYPE``).  A float32 call casts the weights once, and keeps the
batch-norm batch statistics, gate buffers, ``c``, ``tanh(c)`` and ``h`` in
float32; ``backward`` accumulates its per-step gradients in the trace's
dtype.  What float32 rounding would distort stays float64: the readout
``z``, the probabilities (so ``PROB_CLIP`` keeps its meaning) and the loss;
the master weights, gradients, Adam moments and batch-norm running
statistics in ``flat``; and every inference call, since callers pass
float64 windows.  ``cell_step`` and ``gradient_check`` stay float64 because
a central difference with a 1e-5 step needs more digits than float32's
~1e-7 resolution keeps: in float32 the check would measure rounding, not
the gradient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, NumericError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PROB_CLIP = 1e-7
TRAIN_DTYPE = np.float32  # compute dtype of training minibatches

# The parameter layout, in model.bin payload order.  Each row is a tensor's
# name, its shape over D = input_dim and H = hidden_dim, and its role:
# "weight" is trained and L2-penalized, "trained" is trained only, and
# "stat" is a batch-norm running statistic that Adam never moves.
_TENSORS = (
    ("W_x", ("4H", "D"), "weight"),
    ("W_h", ("4H", "H"), "weight"),
    ("b", ("4H",), "trained"),
    ("bn_gamma", ("D",), "trained"),
    ("bn_beta", ("D",), "trained"),
    ("bn_running_mean", ("D",), "stat"),
    ("bn_running_var", ("D",), "stat"),
    ("W_out", ("H",), "weight"),
    ("b_out", (), "trained"),
)
PARAM_NAMES = tuple(name for name, _, _ in _TENSORS)
TRAINABLE = tuple(name for name, _, role in _TENSORS if role != "stat")
L2_FIELDS = tuple(name for name, _, role in _TENSORS if role == "weight")


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


class ParamLayout(NamedTuple):
    """Where each tensor of one model shape lives in ``ModelParams.flat``."""

    input_dim: int
    hidden_dim: int
    size: int
    views: Mapping[str, tuple[slice, tuple[int, ...]]]  # name -> (slice, shape)


@functools.lru_cache(maxsize=None)
def param_layout(input_dim: int, hidden_dim: int) -> ParamLayout:
    """The ``_TENSORS`` table resolved for one (input_dim, hidden_dim)."""
    dims = {"D": input_dim, "H": hidden_dim, "4H": 4 * hidden_dim}
    views = {}
    offset = 0
    for name, symbols, _ in _TENSORS:
        shape = tuple(dims[s] for s in symbols)
        size = math.prod(shape)
        views[name] = (slice(offset, offset + size), shape)
        offset += size
    return ParamLayout(input_dim, hidden_dim, offset, MappingProxyType(views))


class ModelParams:
    """Every tensor of the model in one contiguous float64 vector, ``flat``.

    Each name in ``PARAM_NAMES`` is a view into ``flat`` laid out by
    ``param_layout``: reading ``params.W_h`` gives a view (``b_out`` a
    float), and assigning to a name writes into ``flat``.  Gate blocks in
    ``W_x``/``W_h``/``b`` are stacked input, forget, cell, output along the
    first axis (4H rows).  Gradients and Adam moments use the same class, so
    one whole-vector operation touches every tensor.
    """

    __slots__ = ("flat", "layout")

    def __init__(self, flat: np.ndarray, layout: ParamLayout) -> None:
        """Wrap ``flat`` itself, not a copy, as the tensors of ``layout``."""
        self.flat = flat
        self.layout = layout

    @classmethod
    def zeros_like(cls, params: "ModelParams") -> "ModelParams":
        return cls(np.zeros_like(params.flat), params.layout)

    @property
    def hidden_dim(self) -> int:
        return self.layout.hidden_dim

    @property
    def input_dim(self) -> int:
        return self.layout.input_dim

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.layout)


def _named_view(name: str) -> property:
    def get(self: ModelParams) -> np.ndarray | float:
        where, shape = self.layout.views[name]
        return self.flat[where].reshape(shape)[()]  # [()] turns the 0-d b_out into a float

    def set(self: ModelParams, value: np.ndarray | float) -> None:
        where, shape = self.layout.views[name]
        value = np.asarray(value, dtype=float)
        if value.shape != shape:
            raise ValueError(f"{name} has shape {shape}, got {value.shape}")
        self.flat[where] = value.ravel()

    return property(get, set, doc=f"``{name}`` as a view into ``flat``.")


for _name in PARAM_NAMES:
    setattr(ModelParams, _name, _named_view(_name))


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # tanh form: saturates to exactly 0 or 1 at the extremes, no overflow
    arr = np.asarray(z, dtype=float)
    out = 0.5 * (1.0 + np.tanh(0.5 * arr))
    return float(out) if arr.ndim == 0 else out


def _gate_scale(hidden_dim: int, dtype: type = np.float64) -> np.ndarray:
    """Per-row scale of the 4H pre-activations: 1/2 on i/f/o, 1 on g."""
    scale = np.full(4 * hidden_dim, 0.5, dtype=dtype)
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
    h = cfg.hidden_dim
    k = 1.0 / np.sqrt(h)
    layout = param_layout(cfg.input_dim, h)
    params = ModelParams(np.zeros(layout.size), layout)
    params.W_x = rng.uniform(-k, k, size=params.W_x.shape)
    params.W_h = rng.uniform(-k, k, size=params.W_h.shape)
    params.W_out = rng.uniform(-k, k, size=h)
    params.b_out = rng.uniform(-k, k)
    params.b[h : 2 * h] = 1.0  # forget bias starts open so early gradients flow
    params.bn_gamma[:] = 1.0
    params.bn_running_var[:] = 1.0
    return params


def cell_step(
    params: ModelParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One LSTM step; accepts single vectors or (B, .) batches.

    Returns ``h_t``, ``c_t`` and the gate activations ``(i, f, g, o)``.
    """
    scale = _gate_scale(params.hidden_dim)
    a = (x_t @ params.W_x.T + h_prev @ params.W_h.T + params.b) * scale
    i, f, g, o = np.split(_activate_gates(a, scale), 4, axis=-1)
    c_t = f * c_prev + i * g
    if not np.isfinite(c_t).all():
        raise NumericError("numeric overflow in LSTM cell state")
    h_t = o * np.tanh(c_t)
    return h_t, c_t, (i, f, g, o)


def _bn_apply(
    batch: np.ndarray, params: ModelParams, training: bool, momentum: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a (rows, D) matrix; returns (output, pre-affine x_hat).

    Training mode normalizes with biased batch statistics and folds them into
    the running estimates, in place in ``params.flat``, as ``running =
    (1 - momentum) * running + momentum * batch``; inference uses the
    running estimates unchanged.  The output has the batch's dtype; the
    running estimates stay float64.
    """
    if training:
        if batch.shape[0] < 2:
            raise DataError("batch too small for batchnorm (need at least 2 rows)")
        mean = batch.mean(axis=0)
        var = batch.var(axis=0)
        params.bn_running_mean = (1.0 - momentum) * params.bn_running_mean + momentum * mean
        params.bn_running_var = (1.0 - momentum) * params.bn_running_var + momentum * var
    else:
        mean = params.bn_running_mean.astype(batch.dtype, copy=False)
        var = params.bn_running_var.astype(batch.dtype, copy=False)
    x_hat = (batch - mean) / np.sqrt(var + BN_EPS)
    gamma = params.bn_gamma.astype(batch.dtype, copy=False)
    beta = params.bn_beta.astype(batch.dtype, copy=False)
    return gamma * x_hat + beta, x_hat


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
    gates: tuple[np.ndarray, ...]  # i, f, g, o, each (T, B, H)
    c: np.ndarray  # (T, B, H)
    tanh_c: np.ndarray  # (T, B, H)
    h: np.ndarray  # (T, B, H)
    dropout_mask: np.ndarray | None  # (B, H), already scaled by 1/(1-p)
    h_final: np.ndarray  # (B, H) hidden state fed to the readout
    probs: np.ndarray  # (B,), float64 whatever the buffers' dtype


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
    Training with dropout_p > 0 requires ``rng`` for the mask draw.  A
    float32 batch is computed in float32 up to the float64 readout; any
    other batch in float64.
    """
    batch = np.asarray(batch)
    dtype = np.float32 if batch.dtype == np.float32 else np.float64
    batch = batch.astype(dtype, copy=False)
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
    # Scaling by 1/2 is exact, so scaling before or after the cast agrees.
    scale = _gate_scale(hdim, dtype)
    w_x, w_h = ((w * scale[:, None]).T.astype(dtype, copy=False) for w in (params.W_x, params.W_h))
    acts = x_used.reshape(t_steps * n, d) @ w_x
    acts += (params.b * scale).astype(dtype, copy=False)
    acts = acts.reshape(t_steps, n, 4 * hdim)

    # Training keeps every step for backward; inference overwrites one slot.
    kept = t_steps if training else 1
    cs, tanh_cs, hs = (np.empty((kept, n, hdim), dtype) for _ in range(3))
    h = c = np.zeros((n, hdim), dtype)
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
        mask = ((rng.random((n, hdim)) < keep) / keep).astype(dtype)
        h_final = h * mask
    else:
        mask = None
        h_final = h

    z = h_final @ params.W_out + params.b_out  # float64: W_out is not cast
    probs = np.clip(sigmoid(z), PROB_CLIP, 1.0 - PROB_CLIP)
    if not np.isfinite(probs).all():
        raise NumericError("numeric overflow in readout")

    if not training:
        return probs, None
    trace = ForwardTrace(
        x_used=x_used,
        x_hat=x_hat,
        gates=tuple(np.ascontiguousarray(blk) for blk in np.split(acts, 4, axis=2)),
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
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise ValueError("probabilities and labels must have the same shape")
    data = float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))
    if l2_lambda and params is not None:
        data += l2_lambda * sum(float(np.sum(getattr(params, f) ** 2)) for f in L2_FIELDS)
    return data


def backward(
    trace: ForwardTrace,
    labels: Sequence | np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
) -> ModelParams:
    """Exact gradients of ``bce_loss`` via backpropagation through time.

    Batch-norm sits on the input side, so its batch statistics do not depend
    on any trainable tensor; only gamma/beta need gradients, accumulated from
    the saved ``x_hat`` buffers.  The loop runs and accumulates in the
    trace's dtype; the float64 gradients share the params' layout, with
    zeros in the running-statistic slots.
    """
    y = np.asarray(labels, dtype=float)
    t_steps, n, hdim = trace.h.shape
    dtype = trace.h.dtype
    if y.shape != (n,):
        raise ValueError("labels must match the traced batch size")

    grads = ModelParams.zeros_like(params)

    # d loss / d z for p = sigmoid(z) under mean BCE
    dz = (trace.probs - y) / n
    grads.W_out = trace.h_final.T @ dz
    grads.b_out = float(dz.sum())

    dh = np.outer(dz, params.W_out).astype(dtype)
    if trace.dropout_mask is not None:
        dh *= trace.dropout_mask

    w_x, w_h = (w.astype(dtype, copy=False) for w in (params.W_x, params.W_h))
    zeros = np.zeros((n, hdim), dtype)
    dc_next = zeros
    accumulated = ("W_x", "W_h", "b", "bn_gamma", "bn_beta")
    g_wx, g_wh, g_b, g_gamma, g_beta = (
        np.zeros(getattr(params, name).shape, dtype) for name in accumulated
    )
    gi, gf, gg, go = trace.gates
    for t in range(t_steps - 1, -1, -1):
        i, f, g, o = gi[t], gf[t], gg[t], go[t]
        tanh_c = trace.tanh_c[t]
        c_prev = trace.c[t - 1] if t > 0 else zeros
        h_prev = trace.h[t - 1] if t > 0 else zeros

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
        g_wx += da.T @ trace.x_used[t]
        g_wh += da.T @ h_prev
        g_b += da.sum(axis=0)
        dh = da @ w_h

        if cfg.use_batchnorm:
            dx_bn = da @ w_x  # gradient w.r.t. the BN output slice
            g_gamma += (dx_bn * trace.x_hat[t]).sum(axis=0)
            g_beta += dx_bn.sum(axis=0)

    for name, grad in zip(accumulated, (g_wx, g_wh, g_b, g_gamma, g_beta)):
        setattr(grads, name, grad)  # one cast into the float64 vector
    if cfg.l2_lambda:
        for name in L2_FIELDS:
            grad = getattr(grads, name)
            grad += 2.0 * cfg.l2_lambda * getattr(params, name)

    if not np.isfinite(grads.flat).all():
        raise NumericError("numeric overflow in gradients")
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like the params, plus the step count."""

    first: ModelParams
    second: ModelParams
    step_count: int
    lr: float


def init_adam(params: ModelParams, lr: float = 1e-3) -> AdamState:
    return AdamState(
        first=ModelParams.zeros_like(params),
        second=ModelParams.zeros_like(params),
        step_count=0,
        lr=lr,
    )


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update of the whole parameter vector.

    Adam is elementwise, so one pass over ``flat`` equals one pass per
    tensor.  The batch-norm running statistics have zero gradient and zero
    moments, so their update is exactly 0.0 and they pass through bit for
    bit.  Inputs are left unmodified: the new params and moments own fresh
    vectors, which is what lets ``_bn_apply`` update running statistics in
    place.
    """
    t = state.step_count + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    g = grads.flat
    m = ADAM_BETA1 * state.first.flat + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.second.flat + (1.0 - ADAM_BETA2) * np.square(g)
    update = state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    layout = params.layout
    new_state = replace(
        state,
        first=ModelParams(m, layout),
        second=ModelParams(v, layout),
        step_count=t,
    )
    return ModelParams(params.flat - update, layout), new_state


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
        where, _ = params.layout.views[name]
        size = where.stop - where.start
        if size <= max_entries_per_tensor:
            offsets = list(range(size))
        else:
            offsets = sorted(rng.choice(size, size=max_entries_per_tensor, replace=False).tolist())
        worst = 0.0
        for index in (where.start + k for k in offsets):
            plus = params.copy()
            minus = params.copy()
            plus.flat[index] += perturbation
            minus.flat[index] -= perturbation
            ga_entry = float(analytic.flat[index])
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
